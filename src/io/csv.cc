#include "io/csv.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/str_util.h"

namespace sigsub {
namespace io {

std::vector<std::string> ParseCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c != '\r') {
      cell.push_back(c);
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError(StrCat("cannot open '", path, "' for reading"));
  }
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    rows.push_back(ParseCsvLine(line));
  }
  // A path that opens but cannot be read (a directory, an I/O error)
  // sets badbit; without this check it would read as an empty file.
  if (in.bad()) {
    return Status::IOError(StrCat("cannot read '", path, "'"));
  }
  return rows;
}

Result<std::vector<double>> ReadCsvNumericColumn(const std::string& path,
                                                 int column,
                                                 bool has_header) {
  if (column < 0) {
    return Status::InvalidArgument(
        StrCat("column index must be >= 0, got ", column));
  }
  SIGSUB_ASSIGN_OR_RETURN(auto rows, ReadCsvFile(path));
  std::vector<double> values;
  values.reserve(rows.size());
  for (size_t i = has_header ? 1 : 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (static_cast<size_t>(column) >= row.size()) {
      return Status::InvalidArgument(
          StrCat("row ", i, " of '", path, "' has ", row.size(),
                 " cells; need column ", column));
    }
    const std::string& cell = row[column];
    char* end = nullptr;
    double value = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() || *end != '\0') {
      return Status::InvalidArgument(
          StrCat("row ", i, " column ", column, " of '", path,
                 "' is not numeric: \"", cell, "\""));
    }
    values.push_back(value);
  }
  return values;
}

Status WriteTextFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IOError(StrCat("cannot open '", path, "' for writing"));
  }
  out << contents;
  if (!out) {
    return Status::IOError(StrCat("failed writing '", path, "'"));
  }
  return Status::OK();
}

}  // namespace io
}  // namespace sigsub
