#ifndef SIGSUB_IO_CSV_H_
#define SIGSUB_IO_CSV_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace sigsub {
namespace io {

/// Minimal CSV ingestion for user-supplied series (e.g. real daily closes
/// downloaded by the user, replacing the bundled simulators). Quoted cells
/// with embedded separators/quotes are supported; rows may vary in width.

/// Parses one CSV line into cells (RFC-4180-ish: double quotes escape).
std::vector<std::string> ParseCsvLine(const std::string& line);

/// Reads a whole CSV file into rows of cells. IOError when the file
/// cannot be opened or read.
Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path);

/// Extracts a numeric column (0-based). Skips the header row when
/// `has_header`; fails on rows that are too short or non-numeric cells.
Result<std::vector<double>> ReadCsvNumericColumn(const std::string& path,
                                                 int column, bool has_header);

/// Writes text to a file, replacing its contents.
Status WriteTextFile(const std::string& path, const std::string& contents);

}  // namespace io
}  // namespace sigsub

#endif  // SIGSUB_IO_CSV_H_
