#include "core/suffix_scan.h"

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/str_util.h"
#include "core/x2_kernel.h"
#include "seq/prefix_counts.h"
#include "stats/chi_squared.h"
#include "stats/count_statistics.h"

namespace sigsub {
namespace core {
namespace {

constexpr int32_t kEmpty = -1;

/// Tracks transient allocation high water through the SA-IS recursion so
/// SuffixScanStats::peak_index_bytes reports honest numbers for the
/// memory gate in bench/suffix_scan.cc.
class MemTracker {
 public:
  void Add(int64_t bytes) {
    current_ += bytes;
    peak_ = std::max(peak_, current_);
  }
  void Sub(int64_t bytes) { current_ -= bytes; }
  int64_t current() const { return current_; }
  int64_t peak() const { return peak_; }

 private:
  int64_t current_ = 0;
  int64_t peak_ = 0;
};

/// Bucket boundaries per symbol: heads (first slot) or tails (one past
/// the last slot) of each symbol's bucket in the suffix array.
template <typename CharT>
void FillBuckets(const CharT* s, int64_t n, int64_t k,
                 std::vector<int64_t>* bkt, bool tails) {
  std::fill(bkt->begin(), bkt->end(), 0);
  for (int64_t i = 0; i < n; ++i) ++(*bkt)[s[i]];
  int64_t sum = 0;
  for (int64_t c = 0; c < k; ++c) {
    sum += (*bkt)[c];
    (*bkt)[c] = tails ? sum : sum - (*bkt)[c];
  }
}

template <typename CharT>
void InduceL(const CharT* s, const std::vector<uint8_t>& types, int64_t n,
             int64_t k, std::vector<int64_t>* bkt, int32_t* sa) {
  FillBuckets(s, n, k, bkt, /*tails=*/false);
  for (int64_t i = 0; i < n; ++i) {
    int64_t j = sa[i];
    if (j > 0 && !types[j - 1]) {
      sa[(*bkt)[s[j - 1]]++] = static_cast<int32_t>(j - 1);
    }
  }
}

template <typename CharT>
void InduceS(const CharT* s, const std::vector<uint8_t>& types, int64_t n,
             int64_t k, std::vector<int64_t>* bkt, int32_t* sa) {
  FillBuckets(s, n, k, bkt, /*tails=*/true);
  for (int64_t i = n - 1; i >= 0; --i) {
    int64_t j = sa[i];
    if (j > 0 && types[j - 1]) {
      sa[--(*bkt)[s[j - 1]]] = static_cast<int32_t>(j - 1);
    }
  }
}

/// SA-IS (Nong, Zhang & Chan, "Two Efficient Algorithms for Linear Time
/// Suffix Array Construction"): induced sorting of LMS substrings,
/// recursion on their names, then induction of the full array. Requires
/// s[n-1] to be a unique smallest sentinel; writes ranks into sa[0..n).
template <typename CharT>
void SaIs(const CharT* s, int32_t* sa, int64_t n, int64_t k,
          MemTracker* mem) {
  SIGSUB_DCHECK(n >= 1);
  if (n == 1) {
    sa[0] = 0;
    return;
  }

  // Type pass: types[i] == 1 iff suffix i is S-type.
  std::vector<uint8_t> types(static_cast<size_t>(n));
  mem->Add(n);
  types[n - 1] = 1;
  for (int64_t i = n - 2; i >= 0; --i) {
    types[i] =
        (s[i] < s[i + 1] || (s[i] == s[i + 1] && types[i + 1])) ? 1 : 0;
  }
  auto is_lms = [&](int64_t i) {
    return i > 0 && types[i] && !types[i - 1];
  };

  std::vector<int64_t> bkt(static_cast<size_t>(k));
  mem->Add(k * 8);

  // Stage 1: sort the LMS substrings by one induction round.
  std::fill(sa, sa + n, kEmpty);
  FillBuckets(s, n, k, &bkt, /*tails=*/true);
  for (int64_t i = 1; i < n; ++i) {
    if (is_lms(i)) sa[--bkt[s[i]]] = static_cast<int32_t>(i);
  }
  InduceL(s, types, n, k, &bkt, sa);
  InduceS(s, types, n, k, &bkt, sa);

  // Compact the sorted LMS positions into sa[0..n1).
  int64_t n1 = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (is_lms(sa[i])) sa[n1++] = sa[i];
  }

  // Name the LMS substrings (equal name iff equal substring) into the
  // upper half of sa, indexed by position/2 (LMS positions are >= 2
  // apart, and n1 <= n/2, so the slots never collide).
  std::fill(sa + n1, sa + n, kEmpty);
  int64_t names = 0;
  int64_t prev = -1;
  for (int64_t r = 0; r < n1; ++r) {
    int64_t pos = sa[r];
    bool differs = prev < 0;
    for (int64_t d = 0; !differs; ++d) {
      if (s[pos + d] != s[prev + d] || types[pos + d] != types[prev + d]) {
        differs = true;
        break;
      }
      if (d > 0 && (is_lms(pos + d) || is_lms(prev + d))) {
        differs = !(is_lms(pos + d) && is_lms(prev + d));
        break;
      }
    }
    if (differs) {
      ++names;
      prev = pos;
    }
    sa[n1 + pos / 2] = static_cast<int32_t>(names - 1);
  }
  for (int64_t i = n - 1, j = n - 1; i >= n1; --i) {
    if (sa[i] != kEmpty) sa[j--] = sa[i];
  }

  // The reduced string (one name per LMS substring, text order) ends with
  // the sentinel's name 0, itself a unique smallest sentinel — recurse
  // unless the names are already distinct.
  int32_t* s1 = sa + (n - n1);
  if (names < n1) {
    SaIs<int32_t>(s1, sa, n1, names, mem);
  } else {
    for (int64_t i = 0; i < n1; ++i) sa[s1[i]] = static_cast<int32_t>(i);
  }

  // Turn LMS ranks back into text positions (reusing the s1 slots).
  {
    int64_t j = 0;
    for (int64_t i = 1; i < n; ++i) {
      if (is_lms(i)) s1[j++] = static_cast<int32_t>(i);
    }
  }
  for (int64_t i = 0; i < n1; ++i) sa[i] = s1[sa[i]];

  // Stage 2: place the now fully sorted LMS suffixes at their bucket
  // tails and induce the rest.
  std::fill(sa + n1, sa + n, kEmpty);
  FillBuckets(s, n, k, &bkt, /*tails=*/true);
  for (int64_t i = n1 - 1; i >= 0; --i) {
    int64_t j = sa[i];
    sa[i] = kEmpty;
    sa[--bkt[s[j]]] = static_cast<int32_t>(j);
  }
  InduceL(s, types, n, k, &bkt, sa);
  InduceS(s, types, n, k, &bkt, sa);

  mem->Sub(n);
  mem->Sub(k * 8);
}

/// Copies the record into a sentinel-terminated working array (symbols
/// shifted by +1 so 0 is the unique smallest sentinel), runs SA-IS, and
/// drops the sentinel's rank-0 entry.
template <typename CharT, typename SymAt>
void BuildSuffixArray(SymAt sym_at, int64_t n, int64_t k,
                      std::vector<int32_t>* sa, MemTracker* mem) {
  std::vector<CharT> work(static_cast<size_t>(n) + 1);
  mem->Add((n + 1) * static_cast<int64_t>(sizeof(CharT)));
  for (int64_t i = 0; i < n; ++i) {
    work[i] = static_cast<CharT>(sym_at(i) + 1);
  }
  work[n] = 0;
  std::vector<int32_t> full(static_cast<size_t>(n) + 1);
  mem->Add((n + 1) * 4);
  SaIs<CharT>(work.data(), full.data(), n + 1, k + 1, mem);
  SIGSUB_DCHECK(full[0] == static_cast<int32_t>(n));
  sa->assign(full.begin() + 1, full.end());
  mem->Sub((n + 1) * static_cast<int64_t>(sizeof(CharT)));
  mem->Sub((n + 1) * 4);
}

}  // namespace

Result<SuffixScan> SuffixScan::Build(std::span<const uint8_t> symbols,
                                     int alphabet_size) {
  if (alphabet_size < 2 || alphabet_size > 256) {
    return Status::InvalidArgument(
        StrCat("suffix scan alphabet size must be in [2, 256], got ",
               alphabet_size));
  }
  SuffixScan scan;
  scan.data_ = symbols.data();
  scan.n_ = static_cast<int64_t>(symbols.size());
  scan.k_ = alphabet_size;
  for (int b = 0; b < 256; ++b) {
    scan.decode_[b] = static_cast<uint8_t>(b);
  }
  SIGSUB_RETURN_IF_ERROR(scan.BuildIndex());
  return scan;
}

Result<SuffixScan> SuffixScan::BuildMapped(std::span<const uint8_t> bytes,
                                           std::span<const uint8_t, 256> decode,
                                           int alphabet_size) {
  if (alphabet_size < 2 || alphabet_size > 255) {
    return Status::InvalidArgument(
        StrCat("mapped suffix scan alphabet size must be in [2, 255], got ",
               alphabet_size));
  }
  SuffixScan scan;
  scan.data_ = bytes.data();
  scan.n_ = static_cast<int64_t>(bytes.size());
  scan.k_ = alphabet_size;
  std::copy(decode.begin(), decode.end(), scan.decode_.begin());
  SIGSUB_RETURN_IF_ERROR(scan.BuildIndex());
  return scan;
}

Status SuffixScan::BuildIndex() {
  constexpr int64_t kMaxRecord =
      static_cast<int64_t>(std::numeric_limits<int32_t>::max()) - 2;
  if (n_ > kMaxRecord) {
    return Status::InvalidArgument(
        StrCat("record of ", n_, " symbols exceeds the 32-bit suffix index ",
               "limit of ", kMaxRecord));
  }
  for (int64_t i = 0; i < n_; ++i) {
    if (Sym(i) >= k_) {
      return Status::InvalidArgument(
          StrCat("byte value ", static_cast<int>(data_[i]), " at position ",
                 i, " is outside the ", k_, "-symbol alphabet"));
    }
  }
  if (n_ == 0) return Status::OK();

  MemTracker mem;
  auto sym_at = [this](int64_t i) { return static_cast<int64_t>(Sym(i)); };
  if (k_ + 1 <= 256) {
    BuildSuffixArray<uint8_t>(sym_at, n_, k_, &sa_, &mem);
  } else {
    BuildSuffixArray<uint16_t>(sym_at, n_, k_, &sa_, &mem);
  }
  mem.Add(n_ * 4);  // sa_ itself.

  // Kasai LCP: lcp_[r] = lcp(suffix sa_[r-1], suffix sa_[r]), lcp_[0] = 0.
  lcp_.assign(static_cast<size_t>(n_), 0);
  mem.Add(n_ * 4);
  {
    std::vector<int32_t> rank(static_cast<size_t>(n_));
    mem.Add(n_ * 4);
    for (int64_t r = 0; r < n_; ++r) rank[sa_[r]] = static_cast<int32_t>(r);
    int64_t h = 0;
    for (int64_t i = 0; i < n_; ++i) {
      if (rank[i] == 0) {
        h = 0;
        continue;
      }
      int64_t j = sa_[rank[i] - 1];
      while (i + h < n_ && j + h < n_ && Sym(i + h) == Sym(j + h)) ++h;
      lcp_[rank[i]] = static_cast<int32_t>(h);
      if (h > 0) --h;
    }
    mem.Sub(n_ * 4);
  }

  index_bytes_ = n_ * 8;  // sa_ + lcp_.
  peak_index_bytes_ = mem.peak();
  return Status::OK();
}

namespace {

/// Scores the current prefix under the multinomial null with the fused X²
/// kernel — the same resolved dispatch every interval scanner uses, so
/// the value is bit-identical to scoring the substring's count vector out
/// of a PrefixCounts layout (the naive reference).
class MultinomialScorer {
 public:
  explicit MultinomialScorer(const ChiSquareContext& context)
      : kernel_(context),
        k_(context.alphabet_size()),
        counts_(static_cast<size_t>(context.alphabet_size()), 0) {}

  void Reset() { std::fill(counts_.begin(), counts_.end(), 0); }
  void Extend(uint8_t symbol) { ++counts_[symbol]; }
  double Score(int64_t length) const {
    return kernel_.EvaluateCounts(counts_.data(), length);
  }
  double PValue(double x2) const { return stats::ChiSquarePValue(x2, k_); }

 private:
  X2Kernel kernel_;
  int k_;
  std::vector<int64_t> counts_;
};

/// Markov X²_M over the prefix's transition counts. Reset clears only the
/// touched cells so short classes do not pay k² per class.
class MarkovScorer {
 public:
  explicit MarkovScorer(const MarkovChiSquare& context)
      : context_(&context),
        k_(context.alphabet_size()),
        dist_(context.alphabet_size() * (context.alphabet_size() - 1)),
        pairs_(static_cast<size_t>(context.alphabet_size()) *
                   static_cast<size_t>(context.alphabet_size()),
               0) {}

  void Reset() {
    for (int64_t index : touched_) pairs_[static_cast<size_t>(index)] = 0;
    touched_.clear();
    has_previous_ = false;
  }
  void Extend(uint8_t symbol) {
    if (has_previous_) {
      int64_t index = static_cast<int64_t>(previous_) * k_ + symbol;
      if (pairs_[static_cast<size_t>(index)] == 0) touched_.push_back(index);
      ++pairs_[static_cast<size_t>(index)];
    }
    previous_ = symbol;
    has_previous_ = true;
  }
  double Score(int64_t /*length*/) const { return context_->Evaluate(pairs_); }
  double PValue(double x2) const { return dist_.Sf(x2); }

 private:
  const MarkovChiSquare* context_;
  int k_;
  stats::ChiSquaredDistribution dist_;
  std::vector<int64_t> pairs_;
  std::vector<int64_t> touched_;
  bool has_previous_ = false;
  uint8_t previous_ = 0;
};

Status ValidateOptions(const SuffixScanOptions& options) {
  if (options.top_n < 0) {
    return Status::InvalidArgument(
        StrCat("top_n must be >= 0, got ", options.top_n));
  }
  if (options.min_length < 1) {
    return Status::InvalidArgument(
        StrCat("min_length must be >= 1, got ", options.min_length));
  }
  if (options.max_length < 0 ||
      (options.max_length > 0 && options.max_length < options.min_length)) {
    return Status::InvalidArgument(
        StrCat("max_length must be 0 (unbounded) or >= min_length, got ",
               options.max_length));
  }
  if (options.min_count < 1) {
    return Status::InvalidArgument(
        StrCat("min_count must be >= 1, got ", options.min_count));
  }
  return Status::OK();
}

}  // namespace

template <typename Scorer>
Result<SuffixScanResult> SuffixScan::ScanImpl(
    Scorer&& scorer, const SuffixScanOptions& options) const {
  SIGSUB_RETURN_IF_ERROR(ValidateOptions(options));

  SuffixScanResult result;
  result.stats.peak_index_bytes = peak_index_bytes_;
  result.stats.index_bytes = index_bytes_;

  // A candidate remembers its SA interval instead of its positions: the
  // representative (minimum) start and the position list are resolved only
  // for the survivors, after top-N selection.
  struct Candidate {
    double x2 = 0.0;
    int64_t length = 0;
    int64_t sa_lo = 0;
    int64_t sa_hi = 0;  // Inclusive.
  };

  // Total order: X² descending, then length ascending, then substring
  // text ascending — independent of enumeration order, so the top-N cut
  // is deterministic. Distinct substrings never compare equal.
  auto better = [this](const Candidate& a, const Candidate& b) {
    if (a.x2 != b.x2) return a.x2 > b.x2;
    if (a.length != b.length) return a.length < b.length;
    int64_t sa = sa_[a.sa_lo];
    int64_t sb = sa_[b.sa_lo];
    for (int64_t d = 0; d < a.length; ++d) {
      uint8_t ca = Sym(sa + d);
      uint8_t cb = Sym(sb + d);
      if (ca != cb) return ca < cb;
    }
    return false;
  };

  // Min-heap under `better` (root = worst kept candidate) for the top-N
  // cut; unbounded collection when top_n == 0.
  std::vector<Candidate> kept;
  const int64_t cap = options.top_n;
  if (cap > 0) kept.reserve(static_cast<size_t>(std::min<int64_t>(cap, 1 << 20)) + 1);
  auto offer = [&](const Candidate& candidate) {
    ++result.match_count;
    if (cap == 0) {
      kept.push_back(candidate);
      return;
    }
    if (static_cast<int64_t>(kept.size()) < cap) {
      kept.push_back(candidate);
      std::push_heap(kept.begin(), kept.end(), better);
      return;
    }
    if (better(candidate, kept.front())) {
      std::pop_heap(kept.begin(), kept.end(), better);
      kept.back() = candidate;
      std::push_heap(kept.begin(), kept.end(), better);
    }
  };

  // Scores one class: the suffix-tree node with SA interval [lb, rb],
  // parent string depth `parent_depth` and string depth `depth`, whose
  // members are the path prefixes with lengths in (parent_depth, depth].
  auto process_class = [&](int64_t lb, int64_t rb, int64_t parent_depth,
                           int64_t depth) {
    ++result.stats.classes_enumerated;
    // Empty class: every prefix up to `depth` is shared with a neighboring
    // suffix, so this node contributes no members of its own (only leaves
    // whose whole suffix recurs elsewhere hit this).
    if (depth <= parent_depth) return;
    int64_t count = rb - lb + 1;
    if (count < options.min_count) return;
    int64_t lo_len = std::max(parent_depth + 1, options.min_length);
    int64_t hi_len = depth;
    if (options.maximal_only) {
      // Only the longest member is class-maximal; a truncation at
      // max_length would have a same-count right extension.
      if (options.max_length > 0 && depth > options.max_length) return;
      lo_len = depth;
    } else if (options.max_length > 0) {
      hi_len = std::min(hi_len, options.max_length);
    }
    if (lo_len > hi_len || hi_len < options.min_length) return;
    int64_t start = sa_[lb];
    scorer.Reset();
    for (int64_t len = 1; len <= hi_len; ++len) {
      scorer.Extend(Sym(start + len - 1));
      if (len < lo_len) continue;
      ++result.stats.candidates_scored;
      double x2 = scorer.Score(len);
      if (x2 < options.min_x2) continue;
      offer(Candidate{x2, len, lb, rb});
    }
  };

  // Leaf classes: the substrings unique to one suffix — lengths past the
  // longest prefix shared with any neighbor, i.e. (max adjacent LCP,
  // suffix length]. Count is always 1.
  if (options.min_count <= 1) {
    for (int64_t r = 0; r < n_; ++r) {
      int64_t left = lcp_[r];
      int64_t right = r + 1 < n_ ? lcp_[r + 1] : 0;
      process_class(r, r, std::max(left, right), n_ - sa_[r]);
    }
  }

  // Internal nodes via the classic LCP-interval stack sweep.
  {
    struct Node {
      int64_t depth;
      int64_t lb;
    };
    std::vector<Node> stack;
    stack.push_back(Node{0, 0});
    for (int64_t i = 1; i <= n_; ++i) {
      int64_t l = i < n_ ? lcp_[i] : 0;
      int64_t lb = i - 1;
      while (stack.back().depth > l) {
        Node node = stack.back();
        stack.pop_back();
        process_class(node.lb, i - 1, std::max(stack.back().depth, l),
                      node.depth);
        lb = node.lb;
      }
      if (stack.back().depth < l) stack.push_back(Node{l, lb});
    }
  }

  // Resolve survivors: sort into the total order, then fill the
  // representative (minimum) start, p-value and optional positions.
  std::sort(kept.begin(), kept.end(), better);
  result.classes.reserve(kept.size());
  if (options.collect_positions) result.positions.reserve(kept.size());
  for (const Candidate& candidate : kept) {
    int64_t rep = n_;
    for (int64_t r = candidate.sa_lo; r <= candidate.sa_hi; ++r) {
      rep = std::min<int64_t>(rep, sa_[r]);
    }
    SubstringClass entry;
    entry.substring =
        Substring{rep, rep + candidate.length, candidate.x2};
    entry.count = candidate.sa_hi - candidate.sa_lo + 1;
    entry.p_value = scorer.PValue(candidate.x2);
    result.classes.push_back(entry);
    if (options.collect_positions) {
      std::vector<int64_t> where;
      where.reserve(static_cast<size_t>(entry.count));
      for (int64_t r = candidate.sa_lo; r <= candidate.sa_hi; ++r) {
        where.push_back(sa_[r]);
      }
      std::sort(where.begin(), where.end());
      result.positions.push_back(std::move(where));
    }
  }
  return result;
}

Result<SuffixScanResult> SuffixScan::Scan(
    const ChiSquareContext& context, const SuffixScanOptions& options) const {
  if (context.alphabet_size() != k_) {
    return Status::InvalidArgument(
        StrCat("model alphabet size ", context.alphabet_size(),
               " != record alphabet size ", k_));
  }
  return ScanImpl(MultinomialScorer(context), options);
}

Result<SuffixScanResult> SuffixScan::ScanMarkov(
    const MarkovChiSquare& context, const SuffixScanOptions& options) const {
  if (context.alphabet_size() != k_) {
    return Status::InvalidArgument(
        StrCat("model alphabet size ", context.alphabet_size(),
               " != record alphabet size ", k_));
  }
  return ScanImpl(MarkovScorer(context), options);
}

namespace {

/// Shared brute-force skeleton: enumerate by position, dedupe by content
/// (the map key is the raw symbol string, so ordering matches the
/// suffix path's symbol-wise comparisons), aggregate counts/positions,
/// then apply the same maximality/filter/ordering contract.
struct NaiveInfo {
  int64_t count = 0;
  std::vector<int64_t> positions;
};

template <typename ScoreFn, typename PValueFn>
Result<SuffixScanResult> NaiveImpl(const seq::Sequence& sequence,
                                   const SuffixScanOptions& options,
                                   ScoreFn&& score, PValueFn&& p_value) {
  SIGSUB_RETURN_IF_ERROR(ValidateOptions(options));
  const int64_t n = sequence.size();
  const int64_t cap =
      options.max_length > 0 ? std::min(options.max_length, n) : n;

  // Counts for lengths up to cap+1: maximality of a length-cap candidate
  // inspects its one-symbol extensions.
  std::map<std::string, NaiveInfo> table;
  for (int64_t start = 0; start < n; ++start) {
    std::string key;
    key.reserve(static_cast<size_t>(std::min(cap + 1, n - start)));
    for (int64_t end = start + 1; end <= std::min(start + cap + 1, n);
         ++end) {
      key.push_back(static_cast<char>(sequence[end - 1]));
      NaiveInfo& info = table[key];
      ++info.count;
      info.positions.push_back(start);
    }
  }

  struct NaiveCandidate {
    double x2 = 0.0;
    const std::string* text = nullptr;
    const NaiveInfo* info = nullptr;
  };
  auto better = [](const NaiveCandidate& a, const NaiveCandidate& b) {
    if (a.x2 != b.x2) return a.x2 > b.x2;
    if (a.text->size() != b.text->size()) {
      return a.text->size() < b.text->size();
    }
    return *a.text < *b.text;
  };

  SuffixScanResult result;
  std::vector<NaiveCandidate> kept;
  for (const auto& [text, info] : table) {
    int64_t length = static_cast<int64_t>(text.size());
    if (length < options.min_length || length > cap) continue;
    if (info.count < options.min_count) continue;
    if (options.maximal_only) {
      // Class-maximal iff every one-symbol right extension occurs
      // strictly fewer times (equal count would mean same start set).
      bool maximal = true;
      std::string extended = text;
      extended.push_back('\0');
      for (int symbol = 0; symbol < sequence.alphabet_size(); ++symbol) {
        extended.back() = static_cast<char>(symbol);
        auto it = table.find(extended);
        if (it != table.end() && it->second.count == info.count) {
          maximal = false;
          break;
        }
      }
      if (!maximal) continue;
    }
    ++result.stats.candidates_scored;
    double x2 = score(info.positions.front(),
                      info.positions.front() + length);
    if (x2 < options.min_x2) continue;
    ++result.match_count;
    kept.push_back(NaiveCandidate{x2, &text, &info});
  }

  std::sort(kept.begin(), kept.end(), better);
  if (options.top_n > 0 &&
      static_cast<int64_t>(kept.size()) > options.top_n) {
    kept.resize(static_cast<size_t>(options.top_n));
  }
  for (const NaiveCandidate& candidate : kept) {
    int64_t length = static_cast<int64_t>(candidate.text->size());
    int64_t rep = candidate.info->positions.front();
    SubstringClass entry;
    entry.substring = Substring{rep, rep + length, candidate.x2};
    entry.count = candidate.info->count;
    entry.p_value = p_value(candidate.x2);
    result.classes.push_back(entry);
    if (options.collect_positions) {
      result.positions.push_back(candidate.info->positions);
    }
  }
  return result;
}

}  // namespace

Result<SuffixScanResult> NaiveAllSubstringsScan(
    const seq::Sequence& sequence, const ChiSquareContext& context,
    const SuffixScanOptions& options) {
  if (context.alphabet_size() != sequence.alphabet_size()) {
    return Status::InvalidArgument("model/record alphabet size mismatch");
  }
  // The naive per-position layout the suffix path avoids: a full
  // PrefixCounts, scored through the same fused kernel.
  seq::PrefixCounts counts(sequence);
  X2Kernel kernel(context);
  int k = context.alphabet_size();
  return NaiveImpl(
      sequence, options,
      [&](int64_t start, int64_t end) {
        return kernel.EvaluateRange(counts, start, end);
      },
      [&](double x2) { return stats::ChiSquarePValue(x2, k); });
}

Result<SuffixScanResult> NaiveAllSubstringsScanMarkov(
    const seq::Sequence& sequence, const MarkovChiSquare& context,
    const SuffixScanOptions& options) {
  if (context.alphabet_size() != sequence.alphabet_size()) {
    return Status::InvalidArgument("model/record alphabet size mismatch");
  }
  int k = context.alphabet_size();
  stats::ChiSquaredDistribution dist(k * (k - 1));
  std::vector<int64_t> pairs(static_cast<size_t>(k) * static_cast<size_t>(k));
  return NaiveImpl(
      sequence, options,
      [&](int64_t start, int64_t end) {
        std::fill(pairs.begin(), pairs.end(), 0);
        for (int64_t i = start + 1; i < end; ++i) {
          ++pairs[static_cast<size_t>(sequence[i - 1]) *
                      static_cast<size_t>(k) +
                  sequence[i]];
        }
        return context.Evaluate(pairs);
      },
      [&](double x2) { return dist.Sf(x2); });
}

}  // namespace core
}  // namespace sigsub
