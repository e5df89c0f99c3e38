#ifndef SIGSUB_IO_TABLE_WRITER_H_
#define SIGSUB_IO_TABLE_WRITER_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace sigsub {
namespace io {

/// Column-aligned plain-text table used by the benchmark harness to print
/// paper-style tables.
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers
  /// (checked).
  void AddRow(std::vector<std::string> cells);

  size_t row_count() const { return rows_.size(); }

  /// Monospace-aligned rendering with a header underline.
  std::string Render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace io
}  // namespace sigsub

#endif  // SIGSUB_IO_TABLE_WRITER_H_
