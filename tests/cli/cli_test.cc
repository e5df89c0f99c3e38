#include "cli/cli.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "common/str_util.h"
#include "engine/corpus.h"
#include "io/csv.h"
#include "server/server.h"

namespace sigsub {
namespace cli {
namespace {

TEST(ParseArgsTest, RequiresCommand) {
  EXPECT_TRUE(ParseArgs({}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"bogus"}).status().IsInvalidArgument());
}

TEST(ParseArgsTest, RequiresInput) {
  EXPECT_TRUE(ParseArgs({"mss"}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--input=x"})
                  .status()
                  .IsInvalidArgument());
}

TEST(ParseArgsTest, ParsesFlags) {
  auto options = ParseArgs({"topt", "--string=0110", "--t=5", "--disjoint",
                            "--probs=0.25,0.75", "--alphabet=01",
                            "--min-length=3"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->command, "topt");
  EXPECT_EQ(options->input_text, "0110");
  EXPECT_EQ(options->t, 5);
  EXPECT_TRUE(options->disjoint);
  EXPECT_EQ(options->probs, (std::vector<double>{0.25, 0.75}));
  EXPECT_EQ(options->alphabet, "01");
  EXPECT_EQ(options->min_length, 3);
}

TEST(ParseArgsTest, ParsesBatchFlags) {
  auto options = ParseArgs({"batch", "--input=corpus.csv", "--job=topt",
                            "--format=csv", "--column=2", "--csv-header",
                            "--threads=4", "--cache=16", "--t=3"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->command, "batch");
  EXPECT_EQ(options->job, "topt");
  EXPECT_EQ(options->format, "csv");
  EXPECT_EQ(options->column, 2);
  EXPECT_TRUE(options->csv_header);
  EXPECT_EQ(options->threads, 4);
  EXPECT_EQ(options->cache, 16);
  EXPECT_EQ(options->t, 3);
}

TEST(ParseArgsTest, RejectsFlagInvalidForCommand) {
  // --threads is consumed by mss and batch only; every other command must
  // reject it loudly instead of silently ignoring it.
  auto status = ParseArgs({"topt", "--string=0110", "--threads=2"}).status();
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("--threads"), std::string::npos);
  EXPECT_NE(status.message().find("topt"), std::string::npos);
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--t=3"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"score", "--string=01", "--alpha0=1"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"threshold", "--string=01", "--job=mss"})
                  .status()
                  .IsInvalidArgument());
}

TEST(ParseArgsTest, BatchValidation) {
  EXPECT_TRUE(
      ParseArgs({"batch", "--string=0101"}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch"}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--job=bogus"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--format=bogus"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--cache=-1"})
                  .status()
                  .IsInvalidArgument());
  // CSV-shaping flags only make sense with --format=csv.
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--column=1"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--csv-header"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ParseArgs({"batch", "--input=x", "--format=csv", "--column=1"}).ok());
  // Job-parameter flags must match the selected --job.
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--job=mss", "--pvalue=0.01"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--t=3", "--job=threshold",
                         "--alpha0=5"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--job=disjoint", "--t=3",
                         "--min-length=4"})
                  .ok());
  // topt only consumes --min-length together with --disjoint.
  EXPECT_TRUE(ParseArgs({"topt", "--string=01", "--min-length=3"})
                  .status()
                  .IsInvalidArgument());
}

TEST(ParseArgsTest, RejectsMalformedValues) {
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--t=abc"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--probs=0.5,x"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--bogus=1"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"mss", "string=01"}).status().IsInvalidArgument());
}

TEST(ParseArgsTest, RejectsOutOfRangeIntegers) {
  // strtoll clamps to LLONG_MAX on overflow; the parser must reject the
  // flag instead of silently mining with a clamped value.
  auto status =
      ParseArgs({"topt", "--string=01", "--t=99999999999999999999"}).status();
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("--t"), std::string::npos);
  EXPECT_TRUE(ParseArgs({"topt", "--string=01", "--t=-99999999999999999999"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x",
                         "--cache=123456789012345678901234567890"})
                  .status()
                  .IsInvalidArgument());
  // Values inside the 64-bit range still parse.
  auto ok = ParseArgs({"topt", "--string=01", "--t=9223372036854775807"});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->t, 9223372036854775807LL);
}

TEST(ParseArgsTest, RejectsOverflowingAndGarbageDoubles) {
  EXPECT_TRUE(ParseArgs({"threshold", "--string=01", "--alpha0=1e999"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"threshold", "--string=01", "--alpha0=-1e999"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"threshold", "--string=01", "--alpha0=1.5x"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"threshold", "--string=01", "--alpha0="})
                  .status()
                  .IsInvalidArgument());
  // A denormal underflow is a faithful rounding, not an error.
  EXPECT_TRUE(ParseArgs({"threshold", "--string=01", "--alpha0=1e-320"}).ok());
}

TEST(ParseArgsTest, ThreadsOutsideZeroTo1024AreRejected) {
  // Parsing only: no command runs, so no thread is started. Without the
  // range check 4294967297 narrowed to 1, and 2147483648 to a negative
  // count that read as "hardware concurrency".
  for (const char* command : {"mss", "batch", "query", "serve"}) {
    for (const char* threads :
         {"--threads=-1", "--threads=1025", "--threads=2147483648",
          "--threads=4294967297"}) {
      auto status = ParseArgs({command, "--input=x", threads}).status();
      ASSERT_TRUE(status.IsInvalidArgument()) << command << " " << threads;
      EXPECT_NE(status.message().find("--threads"), std::string::npos)
          << status.message();
    }
  }
  // The bounds themselves parse; 0 keeps meaning hardware concurrency.
  auto zero = ParseArgs({"mss", "--string=01", "--threads=0"});
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->threads, 0);
  auto max = ParseArgs({"mss", "--string=01", "--threads=1024"});
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->threads, 1024);
}

/// Checks that --`flag` refuses values above 10^9, naming the flag, and
/// accepts the bound itself.
void ExpectBoundedAtOneBillion(std::vector<std::string> args,
                               const std::string& flag) {
  for (const char* value :
       {"1000000001", "4294967296", "9223372036854775807"}) {
    std::vector<std::string> over = args;
    over.push_back(StrCat("--", flag, "=", value));
    auto status = ParseArgs(over).status();
    ASSERT_TRUE(status.IsInvalidArgument()) << flag << "=" << value;
    EXPECT_EQ(status.message(),
              StrCat("--", flag, " must be <= 1000000000, got ", value));
  }
  args.push_back(StrCat("--", flag, "=1000000000"));
  EXPECT_TRUE(ParseArgs(args).ok()) << flag;
}

// Each bounded flag reaches int-sized arithmetic; without its bound the
// value wrapped or overflowed silently.
TEST(IntFlagBoundTest, MaxClients) {
  // 4294967296 wrapped to 0 through the int cast: every client then got
  // ERR EBUSY server full.
  ExpectBoundedAtOneBillion({"serve", "--input=c.txt"}, "max-clients");
}

TEST(IntFlagBoundTest, MaxInflight) {
  ExpectBoundedAtOneBillion({"serve", "--input=c.txt"}, "max-inflight");
}

TEST(IntFlagBoundTest, MaxRuntimeMs) {
  // now + 9223372036854775807 overflowed: the daemon drained at once.
  ExpectBoundedAtOneBillion({"serve", "--input=c.txt"}, "max-runtime-ms");
  EXPECT_EQ(ParseArgs({"serve", "--input=c.txt", "--max-runtime-ms=-1"})
                .status()
                .message(),
            "--max-runtime-ms must be >= 0, got -1");
}

TEST(IntFlagBoundTest, TimeoutMs) {
  ExpectBoundedAtOneBillion({"client", "--port=9000", "--send=PING"},
                            "timeout-ms");
}

TEST(IntFlagBoundTest, LingerMs) {
  ExpectBoundedAtOneBillion({"client", "--port=9000", "--send=PING"},
                            "linger-ms");
}

TEST(IntFlagBoundTest, Retries) {
  ExpectBoundedAtOneBillion({"client", "--port=9000", "--send=PING"},
                            "retries");
}

TEST(IntFlagBoundTest, BackoffMs) {
  ExpectBoundedAtOneBillion({"client", "--port=9000", "--send=PING"},
                            "backoff-ms");
}

TEST(IntFlagBoundTest, MaxWindow) {
  // The detector allocates a byte ring of max_window + 1: 10^11 aborted
  // with std::bad_alloc instead of an error naming the flag.
  ExpectBoundedAtOneBillion({"stream", "--string=0101"}, "max-window");
}

TEST(ParseArgsTest, ParsesShardMin) {
  auto options =
      ParseArgs({"batch", "--input=x", "--threads=4", "--shard-min=5000"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->shard_min, 5000);
  // batch-only flag.
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--shard-min=10"})
                  .status()
                  .IsInvalidArgument());
}

TEST(ParseArgsTest, ParsesX2Dispatch) {
  // Common flag: every command accepts it.
  auto scalar = ParseArgs({"mss", "--string=01", "--x2-dispatch=scalar"});
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(scalar->x2_dispatch, core::X2Dispatch::kScalar);
  auto simd =
      ParseArgs({"batch", "--input=x", "--x2-dispatch=simd"});
  ASSERT_TRUE(simd.ok());
  EXPECT_EQ(simd->x2_dispatch, core::X2Dispatch::kSimd);
  auto deflt = ParseArgs({"score", "--string=01", "--start=0", "--end=1"});
  ASSERT_TRUE(deflt.ok());
  EXPECT_EQ(deflt->x2_dispatch, core::X2Dispatch::kAuto);
  // Unknown modes are loud, and name the flag.
  auto status =
      ParseArgs({"mss", "--string=01", "--x2-dispatch=avx512"}).status();
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("--x2-dispatch"), std::string::npos);
}

/// Drops the "x2 dispatch: ..." report line an explicit --x2-dispatch
/// adds, so dispatch modes can be compared on their mining output alone.
std::string StripDispatchReport(const std::string& report) {
  if (report.rfind("x2 dispatch:", 0) != 0) return report;
  return report.substr(report.find('\n') + 1);
}

TEST(RunTest, X2DispatchModesAgreeOnBestSubstring) {
  // A reproducibility audit pins --x2-dispatch=scalar; the report must
  // carry the same best substring the default (auto, possibly SIMD)
  // dispatch finds. The dispatch-report banner names the mode, so it is
  // stripped before comparing.
  const char* input = "--string=001011111111101001100100";
  auto auto_report = cli::Run(
      ParseArgs({"mss", input, "--x2-dispatch=auto"}).value());
  auto scalar_report = cli::Run(
      ParseArgs({"mss", input, "--x2-dispatch=scalar"}).value());
  auto simd_report = cli::Run(
      ParseArgs({"mss", input, "--x2-dispatch=simd"}).value());
  ASSERT_TRUE(auto_report.ok());
  ASSERT_TRUE(scalar_report.ok());
  ASSERT_TRUE(simd_report.ok());
  EXPECT_EQ(StripDispatchReport(*auto_report),
            StripDispatchReport(*scalar_report));
  EXPECT_EQ(StripDispatchReport(*auto_report),
            StripDispatchReport(*simd_report));
}

TEST(RunTest, ExplicitDispatchReportsEffectiveKernel) {
  // --x2-dispatch=simd must never degrade silently: the report either
  // confirms the SIMD kernel is active or carries the fallback warning,
  // depending on what this host supports (both wordings covered; which
  // branch runs follows core::SimdAvailable()).
  auto simd = cli::Run(
      ParseArgs({"mss", "--string=0101011111", "--x2-dispatch=simd"})
          .value());
  ASSERT_TRUE(simd.ok());
  if (core::SimdAvailable()) {
    EXPECT_NE(simd->find("x2 dispatch: simd (AVX2 active)"),
              std::string::npos)
        << *simd;
    EXPECT_EQ(simd->find("WARNING"), std::string::npos) << *simd;
  } else {
    EXPECT_NE(simd->find("WARNING: simd requested but AVX2 is unavailable"),
              std::string::npos)
        << *simd;
    EXPECT_NE(simd->find("x2 dispatch: scalar"), std::string::npos) << *simd;
  }
  auto scalar = cli::Run(
      ParseArgs({"mss", "--string=0101011111", "--x2-dispatch=scalar"})
          .value());
  ASSERT_TRUE(scalar.ok());
  EXPECT_NE(scalar->find("x2 dispatch: scalar (bit-reproducible)"),
            std::string::npos)
      << *scalar;
  // Without the explicit flag there is no dispatch banner.
  auto silent = cli::Run(ParseArgs({"mss", "--string=0101011111"}).value());
  ASSERT_TRUE(silent.ok());
  EXPECT_EQ(silent->find("x2 dispatch:"), std::string::npos) << *silent;
}

TEST(RunTest, MssOnLiteralString) {
  auto options = ParseArgs({"mss", "--string=0101011111111110101"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The run of ones must be the reported window.
  EXPECT_NE(report->find("111111111"), std::string::npos);
  EXPECT_NE(report->find("X2"), std::string::npos);
}

TEST(RunTest, InfersAlphabetFromInput) {
  auto options = ParseArgs({"mss", "--string=acgtacgtaaaaaaa"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("k = 4"), std::string::npos);
}

TEST(RunTest, ExplicitProbsChangeScores) {
  auto uniform = cli::Run(ParseArgs({"score", "--string=1111100000",
                                "--start=0", "--end=5"})
                         .value());
  auto skewed = cli::Run(ParseArgs({"score", "--string=1111100000",
                               "--probs=0.9,0.1", "--start=0", "--end=5"})
                        .value());
  ASSERT_TRUE(uniform.ok());
  ASSERT_TRUE(skewed.ok());
  EXPECT_NE(*uniform, *skewed);
}

TEST(RunTest, ThresholdFromPValue) {
  auto options =
      ParseArgs({"threshold", "--string=0101010111111111111111010101",
                 "--pvalue=0.001"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("alpha0"), std::string::npos);
}

TEST(RunTest, ThresholdRequiresAlphaOrPValue) {
  auto options = ParseArgs({"threshold", "--string=0101"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(cli::Run(options.value()).status().IsInvalidArgument());
}

TEST(RunTest, ToptDisjointReturnsRankedRows) {
  auto options = ParseArgs(
      {"topt", "--string=000000001111111100000000111111110000000", "--t=2",
       "--disjoint", "--min-length=4"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("rank"), std::string::npos);
  EXPECT_NE(report->find("1 "), std::string::npos);
}

TEST(RunTest, MinlenRespectsFloor) {
  auto options = ParseArgs(
      {"minlen", "--string=01010111111010101010101010", "--min-length=10"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("length"), std::string::npos);
}

TEST(RunTest, ScoreValidatesBounds) {
  auto options =
      ParseArgs({"score", "--string=0101", "--start=2", "--end=9"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(cli::Run(options.value()).status().IsOutOfRange());
}

TEST(RunTest, ReadsInputFromFile) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_input.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "00000111111111110000\n").ok());
  auto options = ParseArgs({"mss", std::string("--input=") + path});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("n = 20"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RunTest, MissingFileIsIOError) {
  auto options = ParseArgs({"mss", "--input=/no/such/file"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(cli::Run(options.value()).status().IsIOError());
}

TEST(RunTest, EmptyStringRejected) {
  auto options = ParseArgs({"mss", "--string="});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(cli::Run(options.value()).status().IsInvalidArgument());
}

TEST(RunTest, ParallelMssMatchesDefault) {
  std::string input = "--string=01101010111111111101010101010010101";
  auto single = cli::Run(ParseArgs({"mss", input, "--threads=1"}).value());
  auto multi = cli::Run(ParseArgs({"mss", input, "--threads=4"}).value());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(multi.ok());
  // The reported substring (and hence the report up to the work counter,
  // which legitimately differs across thread counts) must agree: this
  // input has a unique maximum.
  auto table_part = [](const std::string& report) {
    return report.substr(0, report.find("examined"));
  };
  EXPECT_EQ(table_part(*single), table_part(*multi));
}

/// Runs one command line and returns its report, or the error text.
std::string RunArgs(const std::vector<std::string>& args) {
  auto options = ParseArgs(args);
  if (!options.ok()) return options.status().ToString();
  auto report = cli::Run(*options);
  return report.ok() ? *report : report.status().ToString();
}

// The exact status string of every way the command line can be refused:
// one argv per rejection branch of ParseArgs (each flag's bad value, each
// switch given a value, each flag outside its commands, each command's
// own rules) and per flag rule Run checks before mining. Each argv has
// exactly one defect. Entries marked kUsage end with UsageText().
TEST(GoldenWordingTest, EveryRejectionKeepsItsStatusString) {
  constexpr bool kUsage = true;
  struct Case {
    std::vector<std::string> args;
    std::string expected;
    bool usage = false;
  };
  const Case cases[] = {
      // Command and flag syntax.
      {{},
       "InvalidArgument: missing command\n", kUsage},
      {{"bogus"},
       "InvalidArgument: unknown command \"bogus\"\n", kUsage},
      {{"mss", "string=01"},
       "InvalidArgument: expected --flag=value, got \"string=01\""},
      {{"mss", "--string=01", "--bogus=1"},
       "InvalidArgument: unknown flag --bogus\n", kUsage},
      // Bad numbers, one per integer flag (each under a command that takes it).
      {{"topt", "--string=01", "--t=abc"},
       "InvalidArgument: flag --t expects an integer, got \"abc\""},
      {{"topt", "--string=01", "--t=99999999999999999999"},
       "InvalidArgument: flag --t value \"99999999999999999999\" is out of "
       "the 64-bit range"},
      {{"minlen", "--string=01", "--min-length=abc"},
       "InvalidArgument: flag --min-length expects an integer, got \"abc\""},
      {{"substrings", "--string=01", "--top=abc"},
       "InvalidArgument: flag --top expects an integer, got \"abc\""},
      {{"substrings", "--string=01", "--max-length=abc"},
       "InvalidArgument: flag --max-length expects an integer, got \"abc\""},
      {{"substrings", "--string=01", "--min-count=abc"},
       "InvalidArgument: flag --min-count expects an integer, got \"abc\""},
      {{"score", "--string=01", "--start=abc"},
       "InvalidArgument: flag --start expects an integer, got \"abc\""},
      {{"score", "--string=01", "--end=abc"},
       "InvalidArgument: flag --end expects an integer, got \"abc\""},
      {{"mss", "--string=01", "--threads=abc"},
       "InvalidArgument: flag --threads expects an integer, got \"abc\""},
      {{"stream", "--string=01", "--max-window=abc"},
       "InvalidArgument: flag --max-window expects an integer, got \"abc\""},
      {{"stream", "--string=01", "--chunk=abc"},
       "InvalidArgument: flag --chunk expects an integer, got \"abc\""},
      {{"batch", "--input=c.txt", "--format=csv", "--column=abc"},
       "InvalidArgument: flag --column expects an integer, got \"abc\""},
      {{"batch", "--input=c.txt", "--cache=abc"},
       "InvalidArgument: flag --cache expects an integer, got \"abc\""},
      {{"batch", "--input=c.txt", "--shard-min=abc"},
       "InvalidArgument: flag --shard-min expects an integer, got \"abc\""},
      {{"serve", "--input=c.txt", "--port=abc"},
       "InvalidArgument: flag --port expects an integer, got \"abc\""},
      {{"serve", "--input=c.txt", "--max-clients=abc"},
       "InvalidArgument: flag --max-clients expects an integer, got \"abc\""},
      {{"serve", "--input=c.txt", "--max-queue=abc"},
       "InvalidArgument: flag --max-queue expects an integer, got \"abc\""},
      {{"serve", "--input=c.txt", "--max-inflight=abc"},
       "InvalidArgument: flag --max-inflight expects an integer, got \"abc\""},
      {{"serve", "--input=c.txt", "--idle-timeout-ms=abc"},
       "InvalidArgument: flag --idle-timeout-ms expects an integer, got "
       "\"abc\""},
      {{"serve", "--input=c.txt", "--max-runtime-ms=abc"},
       "InvalidArgument: flag --max-runtime-ms expects an integer, got "
       "\"abc\""},
      {{"serve", "--input=c.txt", "--state-dir=d",
        "--snapshot-interval-ms=abc"},
       "InvalidArgument: flag --snapshot-interval-ms expects an integer, got "
       "\"abc\""},
      {{"client", "--port=9000", "--send=PING", "--timeout-ms=abc"},
       "InvalidArgument: flag --timeout-ms expects an integer, got \"abc\""},
      {{"client", "--port=9000", "--send=PING", "--linger-ms=abc"},
       "InvalidArgument: flag --linger-ms expects an integer, got \"abc\""},
      {{"client", "--port=9000", "--send=PING", "--retries=abc"},
       "InvalidArgument: flag --retries expects an integer, got \"abc\""},
      {{"client", "--port=9000", "--send=PING", "--backoff-ms=abc"},
       "InvalidArgument: flag --backoff-ms expects an integer, got \"abc\""},
      // Bad numbers, one per floating-point flag, and --probs.
      {{"threshold", "--string=01", "--alpha0=abc"},
       "InvalidArgument: flag --alpha0 expects a number, got \"abc\""},
      {{"threshold", "--string=01", "--alpha0=1e999"},
       "InvalidArgument: flag --alpha0 value \"1e999\" overflows a double"},
      {{"threshold", "--string=01", "--pvalue=abc"},
       "InvalidArgument: flag --pvalue expects a number, got \"abc\""},
      {{"substrings", "--string=01", "--alpha-p=abc"},
       "InvalidArgument: flag --alpha-p expects a number, got \"abc\""},
      {{"stream", "--string=01", "--alpha=abc"},
       "InvalidArgument: flag --alpha expects a number, got \"abc\""},
      {{"mss", "--string=01", "--probs=0.5,x"},
       "InvalidArgument: flag --probs expects a number, got \"x\""},
      // Flags that parse in their own way.
      {{"mss", "--string=01", "--threads=-1"},
       "InvalidArgument: --threads must be in [0, 1024] (0 = hardware "
       "concurrency), got -1"},
      {{"mss", "--string=01", "--threads=1025"},
       "InvalidArgument: --threads must be in [0, 1024] (0 = hardware "
       "concurrency), got 1025"},
      {{"mss", "--string=01", "--x2-dispatch=avx512"},
       "InvalidArgument: flag --x2-dispatch expects auto, scalar, or simd, "
       "got \"avx512\""},
      // Switches given a value.
      {{"topt", "--string=01", "--disjoint=1"},
       "InvalidArgument: flag --disjoint does not take a value"},
      {{"substrings", "--string=01", "--all=1"},
       "InvalidArgument: flag --all does not take a value"},
      {{"substrings", "--string=01", "--positions=1"},
       "InvalidArgument: flag --positions does not take a value"},
      {{"substrings", "--string=01", "--mmap=1"},
       "InvalidArgument: flag --mmap does not take a value"},
      {{"batch", "--input=c.txt", "--format=csv", "--csv-header=false"},
       "InvalidArgument: flag --csv-header does not take a value"},
      {{"batch", "--input=c.txt", "--verbose=1"},
       "InvalidArgument: flag --verbose does not take a value"},
      {{"topt", "--string=01", "--min-length=3"},
       "InvalidArgument: flag --min-length is only consumed by topt with "
       "--disjoint"},
      // serve.
      {{"serve", "--string=01"},
       "InvalidArgument: serve mines a corpus file; use --input=PATH, not "
       "--string"},
      {{"serve"},
       "InvalidArgument: serve requires --input=PATH (the corpus the daemon "
       "serves)"},
      {{"serve", "--input=c.txt", "--probs=0.5,0.5"},
       "InvalidArgument: flag --probs is not consumed by serve; stream "
       "models arrive with STREAM.CREATE and query models inside each QUERY"},
      {{"serve", "--input=c.txt", "--format=bogus"},
       "InvalidArgument: --format must be lines or csv, got \"bogus\""},
      {{"serve", "--input=c.txt", "--column=1"},
       "InvalidArgument: flag --column requires --format=csv"},
      {{"serve", "--input=c.txt", "--csv-header"},
       "InvalidArgument: flag --csv-header requires --format=csv"},
      {{"serve", "--input=c.txt", "--port=-1"},
       "InvalidArgument: --port must be in [0, 65535], got -1"},
      {{"serve", "--input=c.txt", "--port=65536"},
       "InvalidArgument: --port must be in [0, 65535], got 65536"},
      {{"serve", "--input=c.txt", "--cache=-1"},
       "InvalidArgument: --cache must be >= 0, got -1"},
      {{"serve", "--input=c.txt", "--max-clients=0"},
       "InvalidArgument: --max-clients, --max-queue and --max-inflight must "
       "be >= 1"},
      {{"serve", "--input=c.txt", "--max-queue=0"},
       "InvalidArgument: --max-clients, --max-queue and --max-inflight must "
       "be >= 1"},
      {{"serve", "--input=c.txt", "--max-inflight=0"},
       "InvalidArgument: --max-clients, --max-queue and --max-inflight must "
       "be >= 1"},
      {{"serve", "--input=c.txt", "--state-dir=d", "--fsync=sometimes"},
       "InvalidArgument: fsync policy must be none|always, got \"sometimes\""},
      {{"serve", "--input=c.txt", "--state-dir=d", "--snapshot-interval-ms=-1"},
       "InvalidArgument: --snapshot-interval-ms must be >= 0, got -1"},
      {{"serve", "--input=c.txt", "--fsync=none"},
       "InvalidArgument: flag --fsync requires --state-dir"},
      {{"serve", "--input=c.txt", "--snapshot-interval-ms=10"},
       "InvalidArgument: flag --snapshot-interval-ms requires --state-dir"},
      // client.
      {{"client", "--port=9000", "--send=PING", "--string=01"},
       "InvalidArgument: flag --string is not consumed by client"},
      {{"client", "--port=9000", "--send=PING", "--alphabet=01"},
       "InvalidArgument: flag --alphabet is not consumed by client"},
      {{"client", "--port=9000", "--send=PING", "--probs=0.5,0.5"},
       "InvalidArgument: flag --probs is not consumed by client"},
      {{"client", "--port=9000", "--send=PING", "--x2-dispatch=scalar"},
       "InvalidArgument: flag --x2-dispatch is not consumed by client"},
      {{"client", "--send=PING"},
       "InvalidArgument: client requires --port in [1, 65535], got 0"},
      {{"client", "--port=65536", "--send=PING"},
       "InvalidArgument: client requires --port in [1, 65535], got 65536"},
      {{"client", "--port=9000"},
       "InvalidArgument: client needs --send=CMD (repeatable) and/or "
       "--input=SCRIPT (one command per line; - reads stdin)"},
      {{"client", "--port=9000", "--send=PING", "--timeout-ms=0"},
       "InvalidArgument: --timeout-ms must be >= 1, got 0"},
      {{"client", "--port=9000", "--send=PING", "--linger-ms=-1"},
       "InvalidArgument: --linger-ms must be >= 0, got -1"},
      {{"client", "--port=9000", "--send=PING", "--retries=-1"},
       "InvalidArgument: --retries must be >= 0, got -1"},
      {{"client", "--port=9000", "--send=PING", "--backoff-ms=0"},
       "InvalidArgument: --backoff-ms must be >= 1, got 0"},
      // batch.
      {{"batch", "--string=0101"},
       "InvalidArgument: batch mines a corpus file; use --input=PATH, not "
       "--string"},
      {{"batch"},
       "InvalidArgument: batch requires --input=PATH"},
      {{"batch", "--input=c.txt", "--format=bogus"},
       "InvalidArgument: --format must be lines or csv, got \"bogus\""},
      {{"batch", "--input=c.txt", "--column=1"},
       "InvalidArgument: flag --column requires --format=csv"},
      {{"batch", "--input=c.txt", "--csv-header"},
       "InvalidArgument: flag --csv-header requires --format=csv"},
      {{"batch", "--input=c.txt", "--cache=-1"},
       "InvalidArgument: --cache must be >= 0, got -1"},
      {{"batch", "--input=c.txt", "--job=threshold", "--alpha-p=0"},
       "InvalidArgument: --alpha-p must be in (0, 1), got 0"},
      {{"batch", "--input=c.txt", "--job=threshold", "--alpha-p=1"},
       "InvalidArgument: --alpha-p must be in (0, 1), got 1"},
      {{"batch", "--input=c.txt", "--job=bogus"},
       "InvalidArgument: unknown job kind \"bogus\" (expected "
       "mss|topt|disjoint|threshold|minlen)"},
      {{"batch", "--input=c.txt", "--t=3"},
       "InvalidArgument: flag --t is not consumed by --job=mss"},
      {{"batch", "--input=c.txt", "--min-length=3"},
       "InvalidArgument: flag --min-length is not consumed by --job=mss"},
      {{"batch", "--input=c.txt", "--alpha0=5"},
       "InvalidArgument: flag --alpha0 is not consumed by --job=mss"},
      {{"batch", "--input=c.txt", "--pvalue=0.01"},
       "InvalidArgument: flag --pvalue is not consumed by --job=mss"},
      {{"batch", "--input=c.txt", "--alpha-p=0.01"},
       "InvalidArgument: flag --alpha-p is not consumed by --job=mss"},
      // query.
      {{"query", "--query=mss"},
       "InvalidArgument: query requires --input=PATH (or --string=TEXT)"},
      {{"query", "--string=01", "--input=c.txt", "--query=mss"},
       "InvalidArgument: --string and --input are exclusive"},
      {{"query", "--string=01", "--query=mss", "--format=lines"},
       "InvalidArgument: flag --format requires --input=PATH (a corpus "
       "file), not --string"},
      {{"query", "--string=01", "--query=mss", "--column=1"},
       "InvalidArgument: flag --column requires --input=PATH (a corpus "
       "file), not --string"},
      {{"query", "--string=01", "--query=mss", "--csv-header"},
       "InvalidArgument: flag --csv-header requires --input=PATH (a corpus "
       "file), not --string"},
      {{"query", "--input=c.txt", "--query=mss", "--format=bogus"},
       "InvalidArgument: --format must be lines or csv, got \"bogus\""},
      {{"query", "--input=c.txt", "--query=mss", "--column=1"},
       "InvalidArgument: flag --column requires --format=csv"},
      {{"query", "--input=c.txt", "--query=mss", "--csv-header"},
       "InvalidArgument: flag --csv-header requires --format=csv"},
      {{"query", "--input=c.txt", "--query=mss", "--cache=-1"},
       "InvalidArgument: --cache must be >= 0, got -1"},
      {{"query", "--input=c.txt"},
       "InvalidArgument: query requires --query=SPEC (repeatable) or "
       "--queries-file=PATH"},
      {{"query", "--input=c.txt", "--query=mss", "--probs=0.5,0.5"},
       "InvalidArgument: flag --probs is not consumed by query; put "
       "model=probs(p1;p2;...) inside each query instead"},
      // substrings.
      {{"substrings", "--string=01", "--mmap"},
       "InvalidArgument: flag --mmap maps a file; use --input=PATH, not "
       "--string"},
      {{"substrings", "--mmap"},
       "InvalidArgument: flag --mmap requires --input=PATH"},
      {{"substrings", "--string=01", "--all"},
       "InvalidArgument: flag --all enumerates every distinct substring and "
       "requires --max-length=N to bound the output"},
      {{"substrings", "--string=01", "--alpha-p=0"},
       "InvalidArgument: --alpha-p must be in (0, 1), got 0"},
      {{"substrings", "--string=01", "--alpha-p=1.5"},
       "InvalidArgument: --alpha-p must be in (0, 1), got 1.5"},
      {{"substrings", "--string=01", "--cache=-1"},
       "InvalidArgument: --cache must be >= 0, got -1"},
      {{"substrings"},
       "InvalidArgument: one of --string or --input is required"},
      {{"substrings", "--string=01", "--input=c.txt"},
       "InvalidArgument: --string and --input are exclusive"},
      {{"substrings", "--string=0101", "--probs=0.3,0.3,0.4"},
       "InvalidArgument: --probs has 3 probabilities but the record alphabet "
       "has 2 symbols"},
      // stream.
      {{"stream"},
       "InvalidArgument: one of --string or --input is required"},
      {{"stream", "--string=01", "--input=c.txt"},
       "InvalidArgument: --string and --input are exclusive"},
      {{"stream", "--string="},
       "InvalidArgument: stream input is empty"},
      {{"stream", "--string=0101", "--alpha=0"},
       "InvalidArgument: --alpha must be in (0, 1), got 0"},
      {{"stream", "--string=0101", "--alpha=1"},
       "InvalidArgument: --alpha must be in (0, 1), got 1"},
      {{"stream", "--string=0101", "--max-window=0"},
       "InvalidArgument: --max-window must be >= 1, got 0"},
      {{"stream", "--string=0101", "--chunk=0"},
       "InvalidArgument: --chunk must be >= 1, got 0"},
      // The single-string commands.
      {{"mss"},
       "InvalidArgument: one of --string or --input is required"},
      {{"mss", "--string=01", "--input=c.txt"},
       "InvalidArgument: --string and --input are exclusive"},
      {{"mss", "--string="},
       "InvalidArgument: input string is empty"},
      {{"threshold", "--string=0101"},
       "InvalidArgument: threshold needs --alpha0 or --pvalue"},
      {{"score", "--string=0101"},
       "InvalidArgument: score needs --start and --end"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(RunArgs(c.args), c.usage ? c.expected + UsageText() : c.expected)
        << StrJoin(c.args, " ");
  }

  // Every flag outside the commands that take it: score takes only
  // --start and --end and refuses the rest, mss refuses those two.
  auto not_valid = [](const std::string& flag, const std::string& command) {
    const std::string name = flag.substr(2, flag.find('=') - 2);
    return StrCat("InvalidArgument: flag --", name,
                  " is not valid for command ", command, "\n", UsageText());
  };
  for (const std::string flag :
       {"--t=1", "--disjoint", "--alpha0=1", "--pvalue=0.5", "--alpha-p=0.5",
        "--query=mss", "--queries-file=q.txt", "--min-length=1", "--top=1",
        "--max-length=1", "--min-count=1", "--all", "--positions", "--mmap",
        "--threads=1", "--alpha=0.5", "--max-window=1", "--chunk=1",
        "--job=mss", "--format=lines", "--column=1", "--csv-header",
        "--cache=1", "--shard-min=1", "--verbose", "--port=1", "--host=h",
        "--max-clients=1", "--max-queue=1", "--max-inflight=1",
        "--idle-timeout-ms=1", "--max-runtime-ms=1", "--state-dir=d",
        "--fsync=none", "--snapshot-interval-ms=1", "--send=PING",
        "--timeout-ms=1", "--linger-ms=1", "--retries=1", "--backoff-ms=1"}) {
    EXPECT_EQ(RunArgs({"score", "--string=01", flag}),
              not_valid(flag, "score"));
  }
  for (const std::string flag : {"--start=0", "--end=1"}) {
    EXPECT_EQ(RunArgs({"mss", "--string=01", flag}), not_valid(flag, "mss"));
  }

  // Run's flag rules over a corpus file.
  const std::string path = ::testing::TempDir() + "/sigsub_cli_golden.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\n").ok());
  const std::string input = "--input=" + path;
  const std::string empty = ::testing::TempDir() + "/sigsub_cli_golden_q.txt";
  ASSERT_TRUE(io::WriteTextFile(empty, "# comments only\n").ok());
  const Case file_cases[] = {
      {{"batch", input, "--job=topt", "--t=0"},
       "InvalidArgument: --t must be >= 1, got 0"},
      {{"batch", input, "--job=minlen", "--min-length=0"},
       "InvalidArgument: --min-length must be >= 1, got 0"},
      {{"batch", input, "--job=threshold"},
       "InvalidArgument: batch --job=threshold needs --alpha0 or --pvalue"},
      {{"batch", input, "--job=threshold", "--pvalue=2"},
       "InvalidArgument: --pvalue must be in (0, 1], got 2"},
      {{"batch", input, "--probs=0.3,0.3,0.4"},
       "InvalidArgument: --probs has 3 probabilities but the corpus "
       "alphabet has 2 symbols"},
      {{"query", input, "--queries-file=" + empty},
       "InvalidArgument: query needs at least one --query=SPEC or a "
       "non-empty --queries-file"},
      {{"client", "--port=9", "--input=" + empty},
       "InvalidArgument: client script is empty: nothing to send"},
  };
  for (const Case& c : file_cases) {
    EXPECT_EQ(RunArgs(c.args), c.expected) << StrJoin(c.args, " ");
  }
  std::remove(path.c_str());
  std::remove(empty.c_str());
}

// Byte-exact reports of the single-string mining commands: any drift in
// result, scan statistics or rendering shows here.

TEST(PinnedReportTest, Mss) {
  EXPECT_EQ(RunArgs({"mss", "--string=0101011111111110101", "--threads=1"}),
            "n = 19, k = 2\n"
            "start  end  length  X2       p-value \n"
            "-------------------------------------\n"
            "5      15   10      10.0000  0.001565\n"
            "text: \"1111111111\"\n"
            "examined 59 of 190 candidate positions\n");
  EXPECT_EQ(RunArgs({"mss", "--string=0101011111111110101", "--threads=1",
                     "--probs=0.3,0.7"}),
            "n = 19, k = 2\n"
            "start  end  length  X2      p-value\n"
            "-----------------------------------\n"
            "5      15   10      4.2857  0.03843\n"
            "text: \"1111111111\"\n"
            "examined 67 of 190 candidate positions\n");
}

TEST(PinnedReportTest, TopT) {
  EXPECT_EQ(RunArgs({"topt", "--string=0101011111111110101", "--t=3"}),
            "n = 19, k = 2\n"
            "rank  start  end  X2       p-value \n"
            "-----------------------------------\n"
            "1     5      15   10.0000  0.001565\n"
            "2     6      15   9.0000   0.0027  \n"
            "3     5      14   9.0000   0.0027  \n");
  EXPECT_EQ(RunArgs({"topt",
                     "--string=000000001111111100000000111111110000000",
                     "--t=2", "--disjoint", "--min-length=4"}),
            "n = 39, k = 2\n"
            "rank  start  end  X2      p-value \n"
            "----------------------------------\n"
            "1     24     32   8.0000  0.004678\n"
            "2     16     24   8.0000  0.004678\n");
}

TEST(PinnedReportTest, Threshold) {
  EXPECT_EQ(RunArgs({"threshold", "--string=00011111111100010", "--alpha0=6"}),
            "n = 17, k = 2\n"
            "8 substrings above 6\n"
            "start  end  X2    \n"
            "------------------\n"
            "5      12   7.0000\n"
            "4      11   7.0000\n"
            "4      12   8.0000\n"
            "3      10   7.0000\n"
            "3      11   8.0000\n"
            "3      12   9.0000\n"
            "3      13   6.4000\n"
            "2      12   6.4000\n");
  EXPECT_EQ(
      RunArgs({"threshold", "--string=00011111111100010", "--pvalue=0.01"}),
      "n = 17, k = 2\n"
      "alpha0 = 6.6349 (p-value 0.01)\n"
      "6 substrings above 6.6349\n"
      "start  end  X2    \n"
      "------------------\n"
      "5      12   7.0000\n"
      "4      11   7.0000\n"
      "4      12   8.0000\n"
      "3      10   7.0000\n"
      "3      11   8.0000\n"
      "3      12   9.0000\n");
  // More matches than the report lists: the exact total, then the cap.
  const std::string many = RunArgs(
      {"threshold", "--string=" + std::string(50, '1'), "--alpha0=1"});
  EXPECT_EQ(many.substr(0, many.find("start")),
            "n = 50, k = 2\n1225 substrings above 1 (showing 1000)\n");
}

TEST(PinnedReportTest, Minlen) {
  EXPECT_EQ(RunArgs({"minlen", "--string=01010111111010101010101010",
                     "--min-length=10"}),
            "n = 26, k = 2\n"
            "start  end  length  X2      p-value\n"
            "-----------------------------------\n"
            "5      15   10      3.6000  0.05778\n"
            "text: \"1111110101\"\n");
}

// The substrings reports below were captured from the build before the
// command lowered its flags through QueryFromFlags and
// engine::SuffixScanOptionsFor; both paths (engine, --positions) and both
// loaders (decoded, --mmap) must render them byte for byte.
constexpr char kSubstringsRecord[] = "ACGTTTTTACGTACGTTTTTGGGACGTTTTTAC";

TEST(PinnedReportTest, SubstringsDefault) {
  EXPECT_EQ(
      RunArgs({"substrings", StrCat("--string=", kSubstringsRecord)}),
      "n = 33, k = 4\n"
      "24 matching substrings (showing 10)\n"
      "rank  start  end  length  count  X2       p-value   substring \n"
      "--------------------------------------------------------------\n"
      "1     3      8    5       3      15.0000  0.001817  \"TTTTT\"   \n"
      "2     3      7    4       6      12.0000  0.007383  \"TTTT\"    \n"
      "3     2      8    6       3      11.3333  0.01005   \"GTTTTT\"  \n"
      "4     3      6    3       9      9.0000   0.02929   \"TTT\"     \n"
      "5     1      8    7       3      8.4286   0.03794   \"CGTTTTT\" \n"
      "6     3      10   7       2      8.4286   0.03794   \"TTTTTAC\" \n"
      "7     20     22   2       2      6.0000   0.1116    \"GG\"      \n"
      "8     3      5    2       12     6.0000   0.1116    \"TT\"      \n"
      "9     4      10   6       2      6.0000   0.1116    \"TTTTAC\"  \n"
      "10    0      8    8       3      6.0000   0.1116    \"ACGTTTTT\"\n"
      "cache: 0 hits, 1 misses (1 entries)\n");
  // Long substrings are elided in the text column.
  const std::string runs =
      "0" + std::string(30, '1') + "0" + std::string(30, '1') + "0";
  EXPECT_EQ(
      RunArgs({"substrings", "--string=" + runs, "--top=3", "--min-count=2",
               "--min-length=2"}),
      "n = 63, k = 2\n"
      "59 matching substrings (showing 3)\n"
      "rank  start  end  length  count  X2       p-value    substring       "
      "                          \n"
      "---------------------------------------------------------------------"
      "--------------------------\n"
      "1     1      30   29      4      29.0000  7.238e-08  "
      "\"111111111111111111111111\"... (29 symbols)\n"
      "2     1      29   28      6      28.0000  1.213e-07  "
      "\"111111111111111111111111\"... (28 symbols)\n"
      "3     1      32   31      2      27.1290  1.903e-07  "
      "\"111111111111111111111111\"... (31 symbols)\n"
      "cache: 0 hits, 1 misses (1 entries)\n");
}

TEST(PinnedReportTest, SubstringsPositions) {
  EXPECT_EQ(
      RunArgs({"substrings", StrCat("--string=", kSubstringsRecord),
               "--positions", "--top=4"}),
      "n = 33, k = 4\n"
      "24 matching substrings (showing 4)\n"
      "rank  start  end  length  count  X2       p-value   substring\n"
      "-------------------------------------------------------------\n"
      "1     3      8    5       3      15.0000  0.001817  \"TTTTT\"  \n"
      "2     3      7    4       6      12.0000  0.007383  \"TTTT\"   \n"
      "3     2      8    6       3      11.3333  0.01005   \"GTTTTT\" \n"
      "4     3      6    3       9      9.0000   0.02929   \"TTT\"    \n"
      "positions 1: 3 15 26\n"
      "positions 2: 3 4 15 16 26 27\n"
      "positions 3: 2 14 25\n"
      "positions 4: 3 4 5 15 16 17 26 27 28\n"
      "classes: 24 enumerated, 24 candidates scored; index: 264 bytes "
      "(peak 396)\n");
  // A p-value cutoff under a --probs model.
  EXPECT_EQ(
      RunArgs({"substrings", StrCat("--string=", kSubstringsRecord),
               "--positions", "--probs=0.1,0.2,0.3,0.4", "--alpha-p=0.2"}),
      "n = 33, k = 4\n"
      "5 matching substrings\n"
      "rank  start  end  length  count  X2      p-value  substring\n"
      "-----------------------------------------------------------\n"
      "1     3      8    5       3      7.5000  0.05756  \"TTTTT\"  \n"
      "2     3      7    4       6      6.0000  0.1116   \"TTTT\"   \n"
      "3     0      2    2       5      5.5000  0.1386   \"AC\"     \n"
      "4     2      8    6       3      4.9722  0.1738   \"GTTTTT\" \n"
      "5     20     22   2       2      4.6667  0.1979   \"GG\"     \n"
      "positions 1: 3 15 26\n"
      "positions 2: 3 4 15 16 26 27\n"
      "positions 3: 0 8 12 23 31\n"
      "positions 4: 2 14 25\n"
      "positions 5: 20 21\n"
      "classes: 24 enumerated, 24 candidates scored; index: 264 bytes "
      "(peak 396)\n");
  // A raw X² cutoff over every class member.
  EXPECT_EQ(
      RunArgs({"substrings", StrCat("--string=", kSubstringsRecord),
               "--positions", "--alpha0=8", "--all", "--max-length=6"}),
      "n = 33, k = 4\n"
      "7 matching substrings\n"
      "rank  start  end  length  count  X2       p-value   substring\n"
      "-------------------------------------------------------------\n"
      "1     3      8    5       3      15.0000  0.001817  \"TTTTT\"  \n"
      "2     3      7    4       6      12.0000  0.007383  \"TTTT\"   \n"
      "3     2      8    6       3      11.3333  0.01005   \"GTTTTT\" \n"
      "4     3      9    6       2      11.3333  0.01005   \"TTTTTA\" \n"
      "5     3      6    3       9      9.0000   0.02929   \"TTT\"    \n"
      "6     2      7    5       3      8.6000   0.03511   \"GTTTT\"  \n"
      "7     4      9    5       2      8.6000   0.03511   \"TTTTA\"  \n"
      "positions 1: 3 15 26\n"
      "positions 2: 3 4 15 16 26 27\n"
      "positions 3: 2 14 25\n"
      "positions 4: 3 26\n"
      "positions 5: 3 4 5 15 16 17 26 27 28\n"
      "positions 6: 2 14 25\n"
      "positions 7: 4 27\n"
      "classes: 24 enumerated, 35 candidates scored; index: 264 bytes "
      "(peak 396)\n");
}

TEST(PinnedReportTest, SubstringsMmap) {
  const std::string path = ::testing::TempDir() + "/sigsub_cli_pin_mmap.txt";
  ASSERT_TRUE(io::WriteTextFile(path, StrCat(kSubstringsRecord, "\n")).ok());
  const std::string input = "--input=" + path;
  EXPECT_EQ(
      RunArgs({"substrings", input, "--mmap", "--top=5"}),
      "n = 33, k = 4, mapped\n"
      "24 matching substrings (showing 5)\n"
      "rank  start  end  length  count  X2       p-value   substring\n"
      "-------------------------------------------------------------\n"
      "1     3      8    5       3      15.0000  0.001817  \"TTTTT\"  \n"
      "2     3      7    4       6      12.0000  0.007383  \"TTTT\"   \n"
      "3     2      8    6       3      11.3333  0.01005   \"GTTTTT\" \n"
      "4     3      6    3       9      9.0000   0.02929   \"TTT\"    \n"
      "5     1      8    7       3      8.4286   0.03794   \"CGTTTTT\"\n"
      "cache: 0 hits, 1 misses (1 entries)\n");
  EXPECT_EQ(
      RunArgs({"substrings", input, "--mmap", "--positions", "--top=3"}),
      "n = 33, k = 4, mapped\n"
      "24 matching substrings (showing 3)\n"
      "rank  start  end  length  count  X2       p-value   substring\n"
      "-------------------------------------------------------------\n"
      "1     3      8    5       3      15.0000  0.001817  \"TTTTT\"  \n"
      "2     3      7    4       6      12.0000  0.007383  \"TTTT\"   \n"
      "3     2      8    6       3      11.3333  0.01005   \"GTTTTT\" \n"
      "positions 1: 3 15 26\n"
      "positions 2: 3 4 15 16 26 27\n"
      "positions 3: 2 14 25\n"
      "classes: 24 enumerated, 24 candidates scored; index: 264 bytes "
      "(peak 396)\n");
  std::remove(path.c_str());
}

TEST(PinnedReportTest, SubstringsCutoffsAndModels) {
  EXPECT_EQ(
      RunArgs({"substrings", StrCat("--string=", kSubstringsRecord),
               "--alpha-p=0.05"}),
      "n = 33, k = 4\n"
      "6 matching substrings\n"
      "rank  start  end  length  count  X2       p-value   substring\n"
      "-------------------------------------------------------------\n"
      "1     3      8    5       3      15.0000  0.001817  \"TTTTT\"  \n"
      "2     3      7    4       6      12.0000  0.007383  \"TTTT\"   \n"
      "3     2      8    6       3      11.3333  0.01005   \"GTTTTT\" \n"
      "4     3      6    3       9      9.0000   0.02929   \"TTT\"    \n"
      "5     1      8    7       3      8.4286   0.03794   \"CGTTTTT\"\n"
      "6     3      10   7       2      8.4286   0.03794   \"TTTTTAC\"\n"
      "cache: 0 hits, 1 misses (1 entries)\n");
  EXPECT_EQ(
      RunArgs({"substrings", StrCat("--string=", kSubstringsRecord),
               "--alpha0=3.5", "--top=0"}),
      "n = 33, k = 4\n"
      "14 matching substrings\n"
      "rank  start  end  length  count  X2       p-value   substring   \n"
      "----------------------------------------------------------------\n"
      "1     3      8    5       3      15.0000  0.001817  \"TTTTT\"     \n"
      "2     3      7    4       6      12.0000  0.007383  \"TTTT\"      \n"
      "3     2      8    6       3      11.3333  0.01005   \"GTTTTT\"    \n"
      "4     3      6    3       9      9.0000   0.02929   \"TTT\"       \n"
      "5     1      8    7       3      8.4286   0.03794   \"CGTTTTT\"   \n"
      "6     3      10   7       2      8.4286   0.03794   \"TTTTTAC\"   \n"
      "7     20     22   2       2      6.0000   0.1116    \"GG\"        \n"
      "8     3      5    2       12     6.0000   0.1116    \"TT\"        \n"
      "9     4      10   6       2      6.0000   0.1116    \"TTTTAC\"    \n"
      "10    0      8    8       3      6.0000   0.1116    \"ACGTTTTT\"  \n"
      "11    2      10   8       2      6.0000   0.1116    \"GTTTTTAC\"  \n"
      "12    1      10   9       2      4.7778   0.1888    \"CGTTTTTAC\" \n"
      "13    5      10   5       2      3.8000   0.2839    \"TTTAC\"     \n"
      "14    0      10   10      2      3.6000   0.308     \"ACGTTTTTAC\"\n"
      "cache: 0 hits, 1 misses (1 entries)\n");
  EXPECT_EQ(
      RunArgs({"substrings", StrCat("--string=", kSubstringsRecord),
               "--probs=0.1,0.2,0.3,0.4", "--top=4"}),
      "n = 33, k = 4\n"
      "24 matching substrings (showing 4)\n"
      "rank  start  end  length  count  X2      p-value  substring\n"
      "-----------------------------------------------------------\n"
      "1     3      8    5       3      7.5000  0.05756  \"TTTTT\"  \n"
      "2     3      7    4       6      6.0000  0.1116   \"TTTT\"   \n"
      "3     0      2    2       5      5.5000  0.1386   \"AC\"     \n"
      "4     2      8    6       3      4.9722  0.1738   \"GTTTTT\" \n"
      "cache: 0 hits, 1 misses (1 entries)\n");
  EXPECT_EQ(
      RunArgs({"substrings", StrCat("--string=", kSubstringsRecord), "--all",
               "--max-length=3", "--top=6"}),
      "n = 33, k = 4\n"
      "16 matching substrings (showing 6)\n"
      "rank  start  end  length  count  X2      p-value  substring\n"
      "-----------------------------------------------------------\n"
      "1     3      6    3       9      9.0000  0.02929  \"TTT\"    \n"
      "2     20     22   2       2      6.0000  0.1116   \"GG\"     \n"
      "3     3      5    2       12     6.0000  0.1116   \"TT\"     \n"
      "4     2      5    3       3      3.6667  0.2998   \"GTT\"    \n"
      "5     6      9    3       2      3.6667  0.2998   \"TTA\"    \n"
      "6     0      1    1       5      3.0000  0.3916   \"A\"      \n"
      "cache: 0 hits, 1 misses (1 entries)\n");
}

TEST(PinnedReportTest, FlagErrorsKeepTheirWording) {
  // The engine would answer these edges differently (an empty best for a
  // floor above n, query-layer field names); the commands keep their
  // flag-level answers.
  EXPECT_EQ(RunArgs({"minlen", "--string=0101", "--min-length=10"}),
            "InvalidArgument: min_length must be in [1, 4], got 10");
  EXPECT_EQ(RunArgs({"minlen", "--string=0101", "--min-length=0"}),
            "InvalidArgument: min_length must be in [1, 4], got 0");
  EXPECT_EQ(RunArgs({"topt", "--string=0101", "--t=0"}),
            "InvalidArgument: --t must be >= 1, got 0");
  EXPECT_EQ(RunArgs({"topt", "--string=0101", "--t=2", "--disjoint",
                     "--min-length=0"}),
            "InvalidArgument: min_length must be >= 1, got 0");
  for (const char* command : {"mss", "topt", "minlen"}) {
    EXPECT_EQ(RunArgs({command, "--string=0101", "--probs=0.2,0.3,0.5"}),
              "InvalidArgument: sequence alphabet size (2) != model "
              "alphabet size (3)")
        << command;
  }
  EXPECT_EQ(RunArgs({"threshold", "--string=0101", "--alpha0=1",
                     "--probs=0.2,0.3,0.5"}),
            "InvalidArgument: sequence alphabet size (2) != model "
            "alphabet size (3)");
  EXPECT_EQ(RunArgs({"mss", "--string=0101", "--probs=0.5,0.6"}),
            "InvalidArgument: probability vector must sum to 1, got 1.1");
  EXPECT_EQ(RunArgs({"mss", "--string=0121", "--alphabet=01"}),
            "NotFound: character '2' not in alphabet \"01\"");
}

TEST(RunTest, PValueAboveOneIsAnError) {
  // A p-value above 1 has no critical value; it must be rejected before
  // it reaches the distribution's precondition check.
  EXPECT_EQ(RunArgs({"threshold", "--string=0101", "--pvalue=2"}),
            "InvalidArgument: --pvalue must be in (0, 1], got 2");
}

TEST(BatchTest, LinesCorpusRoundTrip) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_corpus.txt";
  ASSERT_TRUE(io::WriteTextFile(
                  path, "0101011111111110101\n0000000000111111\n")
                  .ok());
  auto options =
      ParseArgs({"batch", std::string("--input=") + path, "--threads=2"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // One row per record, and a cache summary.
  EXPECT_NE(report->find("corpus: 2 records"), std::string::npos);
  EXPECT_NE(report->find("\n0 "), std::string::npos);
  EXPECT_NE(report->find("\n1 "), std::string::npos);
  EXPECT_NE(report->find("cache:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BatchTest, X2DispatchReachesEngine) {
  // The knob is plumbed through EngineOptions: a scalar-pinned batch and
  // the default batch must render identical reports on the same corpus.
  std::string path = ::testing::TempDir() + "/sigsub_cli_dispatch.txt";
  ASSERT_TRUE(io::WriteTextFile(
                  path, "0101011111111110101\n0000000000111111\n")
                  .ok());
  std::string input = std::string("--input=") + path;
  auto scalar = cli::Run(
      ParseArgs({"batch", input, "--x2-dispatch=scalar"}).value());
  auto auto_mode = cli::Run(
      ParseArgs({"batch", input, "--x2-dispatch=auto"}).value());
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  ASSERT_TRUE(auto_mode.ok()) << auto_mode.status().ToString();
  EXPECT_EQ(StripDispatchReport(*scalar), StripDispatchReport(*auto_mode));
  std::remove(path.c_str());
}

TEST(BatchTest, CsvCorpusRoundTrip) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_corpus.csv";
  ASSERT_TRUE(
      io::WriteTextFile(path, "name,series\nr1,0101011111\nr2,0000011111\n")
          .ok());
  auto options = ParseArgs({"batch", std::string("--input=") + path,
                            "--format=csv", "--column=1", "--csv-header",
                            "--job=minlen", "--min-length=4"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("corpus: 2 records"), std::string::npos);
  EXPECT_NE(report->find("job = minlen"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BatchTest, MatchesSingleStringCommand) {
  // The batch engine must report the same MSS window the one-shot `mss`
  // command reports for the same record.
  std::string text = "0101011111111110101";
  std::string path = ::testing::TempDir() + "/sigsub_cli_one.txt";
  ASSERT_TRUE(io::WriteTextFile(path, text + "\n").ok());
  auto single =
      cli::Run(ParseArgs({"mss", std::string("--string=") + text}).value());
  auto batch =
      cli::Run(ParseArgs({"batch", std::string("--input=") + path}).value());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(batch.ok());
  // The one-shot report prints "5  15  10  10.0000"; the batch table
  // must contain the same start/end/X² triple.
  EXPECT_NE(single->find("10.0000"), std::string::npos);
  EXPECT_NE(batch->find("10.0000"), std::string::npos);
  EXPECT_NE(batch->find("15"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SubstringsTest, ParsesFlagsAndValidates) {
  auto options = ParseArgs({"substrings", "--string=abab", "--top=0",
                            "--min-length=2", "--max-length=8",
                            "--min-count=3", "--all", "--positions"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->top, 0);
  EXPECT_EQ(options->min_length, 2);
  EXPECT_EQ(options->max_length, 8);
  EXPECT_EQ(options->min_count, 3);
  EXPECT_TRUE(options->all_substrings);
  EXPECT_TRUE(options->positions);
  // --all without a length cap would enumerate O(n²) substrings.
  EXPECT_TRUE(ParseArgs({"substrings", "--string=abab", "--all"})
                  .status()
                  .IsInvalidArgument());
  // --mmap maps a file, so --string cannot feed it.
  EXPECT_TRUE(ParseArgs({"substrings", "--string=abab", "--mmap"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"substrings", "--string=abab", "--alpha-p=2"})
                  .status()
                  .IsInvalidArgument());
  // The flag set is substrings-specific; a foreign flag is rejected.
  EXPECT_TRUE(ParseArgs({"substrings", "--string=abab", "--t=3"})
                  .status()
                  .IsInvalidArgument());
}

TEST(SubstringsTest, ReportsCountsAndText) {
  // "ababab": "ab" occurs 3 times and is class-maximal up front.
  auto options = ParseArgs({"substrings", "--string=abababab",
                            "--min-length=2", "--min-count=2"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("n = 8, k = 2"), std::string::npos) << *report;
  EXPECT_NE(report->find("\"abab\""), std::string::npos) << *report;
  EXPECT_NE(report->find("cache:"), std::string::npos) << *report;
}

TEST(SubstringsTest, PositionsListsOccurrences) {
  auto options = ParseArgs({"substrings", "--string=abababab", "--top=1",
                            "--min-length=2", "--min-count=3",
                            "--max-length=2", "--positions"});
  ASSERT_TRUE(options.ok());
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // "ab" occurs at 0, 2, 4 (and 6); with min_count=3 and max_length=2 the
  // top row is "ab" with its full position list.
  EXPECT_NE(report->find("positions 1: 0 2 4 6"), std::string::npos)
      << *report;
}

TEST(SubstringsTest, MmapMatchesInMemoryRun) {
  const std::string record = "0010110100111100101101001";
  std::string path = ::testing::TempDir() + "/sigsub_cli_substrings.txt";
  ASSERT_TRUE(io::WriteTextFile(path, record + "\n").ok());
  auto mapped = ParseArgs({"substrings", std::string("--input=") + path,
                           "--mmap", "--min-length=2"});
  ASSERT_TRUE(mapped.ok());
  auto in_memory = ParseArgs({"substrings", std::string("--input=") + path,
                              "--min-length=2"});
  ASSERT_TRUE(in_memory.ok());
  auto mapped_report = cli::Run(mapped.value());
  ASSERT_TRUE(mapped_report.ok()) << mapped_report.status().ToString();
  auto memory_report = cli::Run(in_memory.value());
  ASSERT_TRUE(memory_report.ok()) << memory_report.status().ToString();
  // Identical rows; only the header advertises the mapping.
  EXPECT_NE(mapped_report->find(", mapped"), std::string::npos);
  std::string mapped_body =
      mapped_report->substr(mapped_report->find('\n'));
  std::string memory_body =
      memory_report->substr(memory_report->find('\n'));
  EXPECT_EQ(mapped_body, memory_body);
  std::remove(path.c_str());
}

TEST(BatchTest, MissingCorpusIsIOError) {
  auto options = ParseArgs({"batch", "--input=/no/such/corpus"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(cli::Run(options.value()).status().IsIOError());
}

TEST(BatchTest, ThresholdJobNeedsAlphaOrPValue) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_thr.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\n").ok());
  auto options = ParseArgs(
      {"batch", std::string("--input=") + path, "--job=threshold"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(cli::Run(options.value()).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(RunTest, MinlenFloorAboveLengthNeverRendersBogusRow) {
  // `best` is only valid when something qualified. The single-string
  // path rejects a floor above n outright; the batch engine path returns
  // an empty result, which its table renders as dashes (see
  // BatchTest.MinlenFloorAboveRecordRendersDashes). Neither may print a
  // zero-length substring with X² = 0 and p-value 1 as if it were a
  // finding.
  auto report = cli::Run(
      ParseArgs({"minlen", "--string=0101", "--min-length=10"}).value());
  ASSERT_TRUE(report.status().IsInvalidArgument());
  EXPECT_NE(report.status().message().find("min_length"), std::string::npos);
}

TEST(BatchTest, MinlenFloorAboveRecordRendersDashes) {
  // The engine path does reach the zero-match case: a floor above one
  // record's length yields an empty best, which must render as dashes.
  std::string path = ::testing::TempDir() + "/sigsub_cli_minlen0.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\n000001111111111111\n").ok());
  auto report = cli::Run(ParseArgs({"batch", std::string("--input=") + path,
                                    "--job=minlen", "--min-length=10"})
                             .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Record 0 (n = 4) cannot satisfy the floor: every cell dashed.
  EXPECT_NE(report->find("0       4   -"), std::string::npos) << *report;
  // Record 1 (n = 18) reports a real window of length >= 10.
  EXPECT_NE(report->find("1       18  "), std::string::npos) << *report;
  EXPECT_NE(report->find("p-value"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BatchTest, ThresholdZeroMatchesRendersDashes) {
  // A record with no match above the threshold must render "-" cells,
  // never the (invalid-on-zero-matches) `best` substring.
  std::string path = ::testing::TempDir() + "/sigsub_cli_thr0.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\n000001111111111111\n").ok());
  auto report = cli::Run(ParseArgs({"batch", std::string("--input=") + path,
                                    "--job=threshold", "--alpha0=9"})
                             .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Record 0 ("0101") has nothing above X² = 9: matches 0, dashes.
  EXPECT_NE(report->find("0       4   0        -           -         -"),
            std::string::npos)
      << *report;
  // Record 1's planted run does clear it, proving the guard is per-row.
  EXPECT_NE(report->find("1       18  12       5           18        13.0000"),
            std::string::npos)
      << *report;
  std::remove(path.c_str());
}

TEST(StreamTest, ParsesStreamFlags) {
  auto options = ParseArgs({"stream", "--string=0101", "--alpha=0.001",
                            "--max-window=64", "--chunk=16"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->command, "stream");
  EXPECT_DOUBLE_EQ(options->alpha, 0.001);
  EXPECT_EQ(options->max_window, 64);
  EXPECT_EQ(options->chunk, 16);
  // Stream-only flags are rejected elsewhere; batch flags rejected here.
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--alpha=0.1"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"stream", "--string=01", "--job=mss"})
                  .status()
                  .IsInvalidArgument());
}

TEST(StreamTest, FlagsAreValidated) {
  // ParseArgs refuses them, so a bad flag fails before stdin is read.
  for (const std::string flag : {"--alpha=2", "--alpha=0", "--alpha=nan",
                                 "--max-window=0", "--chunk=0"}) {
    EXPECT_TRUE(ParseArgs({"stream", "--input=-", flag})
                    .status()
                    .IsInvalidArgument())
        << flag;
  }
}

TEST(StreamTest, FlagsBurstAndReportsCalibration) {
  // A long null prefix then a heavy burst: the calibrated detector must
  // alarm inside the burst and the report must carry the calibration
  // summary and the alarm table.
  std::string text(3000, '0');
  for (size_t i = 1; i < text.size(); i += 2) text[i] = '1';  // 0101...
  text += std::string(300, '1');
  auto report = cli::Run(ParseArgs({"stream", "--string=" + text,
                                    "--alpha=0.0001", "--max-window=256",
                                    "--chunk=512"})
                             .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("n = 3300"), std::string::npos) << *report;
  EXPECT_NE(report->find("scales: 1 2 4 8 16 32 64 128 256"),
            std::string::npos)
      << *report;
  EXPECT_NE(report->find("Sidak over 9 scales"), std::string::npos);
  EXPECT_NE(report->find("alarms:"), std::string::npos);
  EXPECT_NE(report->find("p-value"), std::string::npos) << *report;
}

TEST(StreamTest, QuietNullStreamReportsZeroAlarms) {
  std::string text;
  for (int i = 0; i < 1000; ++i) text += (i * 7 % 13) % 2 ? '1' : '0';
  auto report = cli::Run(
      ParseArgs({"stream", "--string=" + text, "--max-window=64"}).value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("alarms: 0"), std::string::npos) << *report;
}

TEST(StreamTest, ReadsStreamFromFile) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_stream.txt";
  std::string text(500, '0');
  for (size_t i = 1; i < text.size(); i += 2) text[i] = '1';
  text += std::string(200, '1');
  ASSERT_TRUE(io::WriteTextFile(path, text + "\n").ok());
  auto report = cli::Run(ParseArgs({"stream", std::string("--input=") + path,
                                    "--max-window=128", "--alpha=0.001"})
                             .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("n = 700"), std::string::npos) << *report;
  std::remove(path.c_str());
}

TEST(QueryTest, ParsesQueryFlags) {
  auto options = ParseArgs({"query", "--input=corpus.txt", "--query=mss",
                            "--query=topt:t=3", "--queries-file=q.txt",
                            "--threads=2", "--cache=8"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->command, "query");
  EXPECT_EQ(options->queries,
            (std::vector<std::string>{"mss", "topt:t=3"}));
  EXPECT_EQ(options->queries_file, "q.txt");
  // query-only flags are rejected elsewhere.
  EXPECT_TRUE(ParseArgs({"mss", "--string=01", "--query=mss"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"batch", "--input=x", "--queries-file=q"})
                  .status()
                  .IsInvalidArgument());
}

TEST(QueryTest, ValidatesItsFlagSet) {
  // A corpus and at least one query are required.
  EXPECT_TRUE(ParseArgs({"query", "--query=mss"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"query", "--input=x"})
                  .status()
                  .IsInvalidArgument());
  // Models live inside the queries; a corpus-level --probs would be
  // silently shadowed, so it is rejected loudly.
  auto status = ParseArgs({"query", "--input=x", "--query=mss",
                           "--probs=0.5,0.5"})
                    .status();
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("--probs"), std::string::npos);
  // Job flags belong to batch.
  EXPECT_TRUE(ParseArgs({"query", "--input=x", "--query=mss", "--job=mss"})
                  .status()
                  .IsInvalidArgument());
  // Corpus-shaping flags describe a file layout; with --string they
  // would be silently ignored, so they are rejected loudly.
  for (const char* flag : {"--format=csv", "--column=1", "--csv-header"}) {
    auto shaped =
        ParseArgs({"query", "--string=0101", "--query=mss", flag}).status();
    ASSERT_TRUE(shaped.IsInvalidArgument()) << flag;
    EXPECT_NE(shaped.message().find("--string"), std::string::npos) << flag;
  }
}

TEST(QueryTest, RunsEveryKernelAgainstAStringCorpus) {
  auto report = cli::Run(
      ParseArgs({"query", "--string=0101011111111110101",
                 "--query=mss", "--query=topt:t=2",
                 "--query=disjoint:t=2,min_length=3",
                 "--query=threshold:alpha0=8,max_matches=4",
                 "--query=minlen:min_length=6",
                 "--query=lenbound:min_length=4,max_length=8",
                 "--query=arlm", "--query=agmm",
                 "--query=blocked:block_size=8"})
          .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const char* kind : {"mss", "topt", "disjoint", "threshold", "minlen",
                           "lenbound", "arlm", "agmm", "blocked"}) {
    EXPECT_NE(report->find(kind), std::string::npos) << kind << *report;
  }
  // The planted run of ones is the MSS; its X² appears in the table.
  EXPECT_NE(report->find("10.0000"), std::string::npos) << *report;
  EXPECT_NE(report->find("cache:"), std::string::npos);
}

TEST(QueryTest, MatchesSingleStringCommand) {
  // The query path must report the same MSS window the one-shot `mss`
  // command reports for the same record.
  std::string text = "0101011111111110101";
  auto single =
      cli::Run(ParseArgs({"mss", std::string("--string=") + text}).value());
  auto query = cli::Run(ParseArgs({"query", std::string("--string=") + text,
                                   "--query=mss:seq=0,model=uniform"})
                            .value());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_NE(single->find("10.0000"), std::string::npos);
  EXPECT_NE(query->find("10.0000"), std::string::npos);
}

TEST(QueryTest, ReadsQueriesFileWithComments) {
  std::string corpus_path = ::testing::TempDir() + "/sigsub_q_corpus.txt";
  std::string queries_path = ::testing::TempDir() + "/sigsub_q_list.txt";
  ASSERT_TRUE(io::WriteTextFile(corpus_path,
                                "0101011111111110101\n0000000000111111\n")
                  .ok());
  ASSERT_TRUE(io::WriteTextFile(queries_path,
                                "# corpus-wide sweep\n"
                                "mss:seq=0\n"
                                "\n"
                                "  topt:seq=1,t=2\n")
                  .ok());
  auto report = cli::Run(
      ParseArgs({"query", std::string("--input=") + corpus_path,
                 std::string("--queries-file=") + queries_path})
          .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("queries = 2"), std::string::npos) << *report;
  std::remove(corpus_path.c_str());
  std::remove(queries_path.c_str());
}

TEST(QueryTest, MalformedQueryNamesTheQuery) {
  auto report = cli::Run(ParseArgs({"query", "--string=0101",
                                    "--query=mss", "--query=bogus:t=1"})
                             .value());
  ASSERT_TRUE(report.status().IsInvalidArgument());
  EXPECT_NE(report.status().message().find("query 1"), std::string::npos);
  EXPECT_NE(report.status().message().find("unknown query kind"),
            std::string::npos);
}

TEST(QueryTest, OutOfRangeSequenceIndexNamesField) {
  auto report = cli::Run(
      ParseArgs({"query", "--string=0101", "--query=mss:seq=7"}).value());
  ASSERT_TRUE(report.status().IsInvalidArgument());
  EXPECT_NE(report.status().message().find("field seq"), std::string::npos);
}

TEST(BatchTest, AlphaPThresholdRunsAndWins) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_alphap.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\n000001111111111111\n").ok());
  // alpha_p = 0.001 -> χ²(1) critical value ≈ 10.83: record 1's planted
  // run (X² = 13) clears it, record 0 does not.
  auto report = cli::Run(ParseArgs({"batch", std::string("--input=") + path,
                                    "--job=threshold", "--alpha-p=0.001"})
                             .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("13.0000"), std::string::npos) << *report;
  // --alpha-p takes precedence over --alpha0: an alpha0 that would match
  // everything must not change the result.
  auto both = cli::Run(ParseArgs({"batch", std::string("--input=") + path,
                                  "--job=threshold", "--alpha-p=0.001",
                                  "--alpha0=0"})
                           .value());
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  EXPECT_EQ(*report, *both);
  // Like the other threshold flags, it is rejected for other jobs.
  EXPECT_TRUE(ParseArgs({"batch", std::string("--input=") + path,
                         "--job=mss", "--alpha-p=0.001"})
                  .status()
                  .IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(BatchTest, FlagRangeErrorsSpeakFlagVocabulary) {
  // Batch rides the query layer internally, but errors about values the
  // user typed as flags must name the flags, not query-grammar fields.
  std::string path = ::testing::TempDir() + "/sigsub_cli_flagvocab.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\n").ok());
  std::string input = std::string("--input=") + path;
  auto probs = cli::Run(
      ParseArgs({"batch", input, "--probs=0.3,0.3,0.4"}).value());
  ASSERT_TRUE(probs.status().IsInvalidArgument());
  EXPECT_NE(probs.status().message().find("--probs"), std::string::npos)
      << probs.status().message();
  auto t = cli::Run(
      ParseArgs({"batch", input, "--job=topt", "--t=0"}).value());
  ASSERT_TRUE(t.status().IsInvalidArgument());
  EXPECT_NE(t.status().message().find("--t"), std::string::npos);
  // An out-of-range --alpha-p is a parse-time error, and a negative one
  // must not be conflated with the unset sentinel (which would silently
  // hand precedence back to --alpha0).
  for (const char* bad : {"--alpha-p=2", "--alpha-p=-0.001",
                          "--alpha-p=0"}) {
    auto alpha_p =
        ParseArgs({"batch", input, "--job=threshold", bad}).status();
    ASSERT_TRUE(alpha_p.IsInvalidArgument()) << bad;
    EXPECT_NE(alpha_p.message().find("--alpha-p"), std::string::npos)
        << bad;
  }
  std::remove(path.c_str());
}

TEST(BatchTest, VerboseAppendsSharedEngineStatsLine) {
  std::string path = ::testing::TempDir() + "/sigsub_cli_verbose.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "0101\n0011\n").ok());
  auto report = cli::Run(
      ParseArgs({"batch", std::string("--input=") + path, "--verbose"})
          .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The same engine::FormatEngineStats line the server's STATS endpoint
  // serves: one snapshot struct, two consumers.
  EXPECT_NE(report->find("stats: queries=2 batches=1 "), std::string::npos)
      << *report;
  EXPECT_NE(report->find("cache_misses=2"), std::string::npos) << *report;
  EXPECT_NE(report->find("streams_open=0"), std::string::npos) << *report;
  std::remove(path.c_str());
}

TEST(ServeTest, ParsesServeFlags) {
  auto options = ParseArgs(
      {"serve", "--input=corpus.txt", "--port=9000", "--host=0.0.0.0",
       "--max-clients=8", "--max-queue=16", "--max-inflight=4",
       "--idle-timeout-ms=1000", "--max-runtime-ms=250"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->command, "serve");
  EXPECT_EQ(options->port, 9000);
  EXPECT_EQ(options->host, "0.0.0.0");
  EXPECT_EQ(options->max_clients, 8);
  EXPECT_EQ(options->max_queue, 16);
  EXPECT_EQ(options->max_inflight, 4);
  EXPECT_EQ(options->idle_timeout_ms, 1000);
  EXPECT_EQ(options->max_runtime_ms, 250);
}

TEST(ServeTest, ValidatesItsFlagSet) {
  // The daemon serves a corpus file; literals and client flags are out.
  EXPECT_TRUE(ParseArgs({"serve"}).status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseArgs({"serve", "--string=0101"}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"serve", "--input=c.txt", "--probs=0.5,0.5"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"serve", "--input=c.txt", "--send=PING"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"serve", "--input=c.txt", "--port=70000"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"serve", "--input=c.txt", "--max-queue=0"})
                  .status()
                  .IsInvalidArgument());
}

TEST(ClientTest, ParsesClientFlags) {
  auto options = ParseArgs({"client", "--port=9000", "--send=PING",
                            "--send=STATS", "--timeout-ms=1000",
                            "--linger-ms=50"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->command, "client");
  EXPECT_EQ(options->port, 9000);
  EXPECT_EQ(options->sends,
            (std::vector<std::string>{"PING", "STATS"}));
  EXPECT_EQ(options->timeout_ms, 1000);
  EXPECT_EQ(options->linger_ms, 50);
}

TEST(ClientTest, ValidatesItsFlagSet) {
  // A port is mandatory (no ephemeral guessing) and so is something to
  // send — either --send lines or an --input script.
  EXPECT_TRUE(
      ParseArgs({"client", "--send=PING"}).status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseArgs({"client", "--port=9000"}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"client", "--port=9000", "--send=PING",
                         "--string=01"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"client", "--port=0", "--send=PING"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseArgs({"client", "--port=9000", "--send=PING",
                         "--x2-dispatch=simd"})
                  .status()
                  .IsInvalidArgument());
}

TEST(ServeClientTest, LoopbackRoundTripOverEphemeralPort) {
  // Full CLI-level round trip: a serve instance on an ephemeral port with
  // a short self-drain budget, driven by the client command.
  std::string path = ::testing::TempDir() + "/sigsub_cli_serve.txt";
  ASSERT_TRUE(io::WriteTextFile(path, "01010101\n00110011\n").ok());

  server::Server daemon(
      engine::Corpus::FromStrings({"01010101", "00110011"}, "01").value());
  ASSERT_TRUE(daemon.Start().ok());

  auto options = ParseArgs(
      {"client", StrCat("--port=", daemon.port()), "--send=PING",
       "--send=QUERY mss:seq=0", "--send=STATS"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  auto report = cli::Run(options.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("OK pong"), std::string::npos) << *report;
  EXPECT_NE(report->find("OK kind=mss seq=0 "), std::string::npos)
      << *report;
  EXPECT_NE(report->find(" queries=1 "), std::string::npos) << *report;
  std::remove(path.c_str());
}

TEST(UsageTest, MentionsAllCommands) {
  std::string usage = UsageText();
  for (const char* command :
       {"mss", "topt", "threshold", "minlen", "score", "batch", "query",
        "stream", "serve", "client"}) {
    EXPECT_NE(usage.find(command), std::string::npos) << command;
  }
}

}  // namespace
}  // namespace cli
}  // namespace sigsub
