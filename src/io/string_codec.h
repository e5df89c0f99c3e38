#ifndef SIGSUB_IO_STRING_CODEC_H_
#define SIGSUB_IO_STRING_CODEC_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "seq/sequence.h"

namespace sigsub {
namespace io {

/// The encoder that turns a price series into the binary up/down strings the
/// paper analyzes, plus small formatting helpers for the table benches.

/// Binary sequence from the signs of consecutive differences: symbol 1
/// where series[i+1] > series[i], else 0. Output has size() - 1 elements;
/// requires at least 2 values. Ties (equal values) count as "down", the
/// usual convention for daily closes.
Result<seq::Sequence> UpDownFromLevels(const std::vector<double>& levels);

/// "54.27%" with the given number of decimals.
std::string FormatPercent(double fraction, int decimals = 2);

/// "+68.10%" / "-41.27%" (signed), for change columns.
std::string FormatSignedPercent(double fraction, int decimals = 2);

}  // namespace io
}  // namespace sigsub

#endif  // SIGSUB_IO_STRING_CODEC_H_
