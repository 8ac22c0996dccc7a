// Tests for the bench experiment harness (bench/harness.*): environment
// handling, paper-default configurations, sweep thinning, CSV emission and
// the BENCH_maar.json appender.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"

namespace rejecto::bench {
namespace {

class HarnessEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("REJECTO_BENCH_FAST");
    ::unsetenv("REJECTO_SEED");
    ::unsetenv("REJECTO_CSV_DIR");
  }
};

TEST_F(HarnessEnvTest, DefaultsFromCleanEnv) {
  TearDown();
  const auto ctx = ExperimentContext::FromEnv();
  EXPECT_FALSE(ctx.fast);
  EXPECT_EQ(ctx.seed, 42u);
  EXPECT_FALSE(ctx.csv_dir.has_value());
}

TEST_F(HarnessEnvTest, EnvOverridesApply) {
  ::setenv("REJECTO_BENCH_FAST", "1", 1);
  ::setenv("REJECTO_SEED", "7", 1);
  ::setenv("REJECTO_CSV_DIR", "/tmp/rejecto_csvs", 1);
  const auto ctx = ExperimentContext::FromEnv();
  EXPECT_TRUE(ctx.fast);
  EXPECT_EQ(ctx.seed, 7u);
  ASSERT_TRUE(ctx.csv_dir.has_value());
  EXPECT_EQ(*ctx.csv_dir, "/tmp/rejecto_csvs");
}

TEST_F(HarnessEnvTest, PaperAttackConfigMatchesSectionSixA) {
  TearDown();
  const auto cfg = PaperAttackConfig(ExperimentContext::FromEnv());
  EXPECT_EQ(cfg.num_fakes, 10'000u);
  EXPECT_EQ(cfg.intra_fake_links_per_account, 6u);
  EXPECT_EQ(cfg.requests_per_spammer, 20u);
  EXPECT_DOUBLE_EQ(cfg.spam_rejection_rate, 0.7);
  EXPECT_DOUBLE_EQ(cfg.legit_rejection_rate, 0.2);
  EXPECT_DOUBLE_EQ(cfg.careless_fraction, 0.15);
}

TEST_F(HarnessEnvTest, FastModeShrinksAttack) {
  ::setenv("REJECTO_BENCH_FAST", "1", 1);
  const auto cfg = PaperAttackConfig(ExperimentContext::FromEnv());
  EXPECT_EQ(cfg.num_fakes, 2'000u);
}

TEST_F(HarnessEnvTest, SweepThinsOnlyInFastMode) {
  TearDown();
  ExperimentContext full = ExperimentContext::FromEnv();
  const std::vector<double> values = {1, 2, 3, 4, 5};
  EXPECT_EQ(Sweep(values, full).size(), 5u);
  full.fast = true;
  const auto thin = Sweep(values, full);
  ASSERT_EQ(thin.size(), 3u);
  EXPECT_EQ(thin.front(), 1);
  EXPECT_EQ(thin[1], 3);
  EXPECT_EQ(thin.back(), 5);
}

TEST_F(HarnessEnvTest, ShortSweepsPassThrough) {
  ExperimentContext ctx;
  ctx.fast = true;
  const std::vector<double> values = {1, 2, 3};
  EXPECT_EQ(Sweep(values, ctx).size(), 3u);
}

TEST_F(HarnessEnvTest, AppendixDatasetsSelection) {
  ExperimentContext ctx;
  EXPECT_EQ(AppendixDatasets(ctx).size(), 6u);
  ctx.fast = true;
  const auto fast_list = AppendixDatasets(ctx);
  ASSERT_EQ(fast_list.size(), 1u);
  EXPECT_EQ(fast_list[0], "ca-HepTh");
}

TEST_F(HarnessEnvTest, EmitWritesCsvWhenConfigured) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("rejecto_harness_" + std::to_string(::getpid()));
  ExperimentContext ctx;
  ctx.csv_dir = dir.string();
  util::Table t({"a", "b"});
  t.AddRow({std::int64_t{1}, std::int64_t{2}});
  ctx.Emit("unit", "unit table", t);
  std::ifstream in(dir / "unit.csv");
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "a,b");
  std::filesystem::remove_all(dir);
}

TEST_F(HarnessEnvTest, PaperDetectorConfigTargets) {
  TearDown();
  const auto cfg = PaperDetectorConfig(ExperimentContext::FromEnv(), 1234);
  EXPECT_EQ(cfg.target_detections, 1234u);
  EXPECT_TRUE(cfg.trim_to_target);
}

// ---------- BENCH_maar.json appender ----------

// A strict little JSON reader for the appender tests: accepts exactly one
// array of objects and returns each object as key -> raw value text, or
// fails on any syntax error.
class JsonRows {
 public:
  static bool Parse(const std::string& text,
                    std::vector<std::map<std::string, std::string>>* rows) {
    JsonRows r(text);
    r.Ws();
    if (!r.Eat('[')) return false;
    r.Ws();
    if (!r.Eat(']')) {
      do {
        std::map<std::string, std::string> fields;
        if (!r.Object(&fields)) return false;
        rows->push_back(std::move(fields));
        r.Ws();
      } while (r.Eat(','));
      if (!r.Eat(']')) return false;
    }
    r.Ws();
    return r.pos_ == r.s_.size();
  }

 private:
  explicit JsonRows(const std::string& s) : s_(s) {}

  void Ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(
                                   s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool String(std::string* out) {
    Ws();
    if (!Eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      if (out != nullptr) out->push_back(s_[pos_]);
      ++pos_;
    }
    return Eat('"');
  }
  bool Object(std::map<std::string, std::string>* fields) {
    Ws();
    if (!Eat('{')) return false;
    Ws();
    if (Eat('}')) return true;
    do {
      std::string key;
      if (!String(&key)) return false;
      Ws();
      if (!Eat(':')) return false;
      Ws();
      const std::size_t start = pos_;
      if (!Value()) return false;
      if (fields != nullptr) (*fields)[key] = s_.substr(start, pos_ - start);
      Ws();
    } while (Eat(','));
    return Eat('}');
  }
  bool Value() {
    Ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '"') return String(nullptr);
    if (c == '{') return Object(nullptr);
    for (const char* lit : {"true", "false", "null"}) {
      if (s_.compare(pos_, std::strlen(lit), lit) == 0) {
        pos_ += std::strlen(lit);
        return true;
      }
    }
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::strchr("+-.eE", s_[pos_]) != nullptr)) {
      ++pos_;
    }
    return pos_ > start;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

class BenchJsonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rejecto_bench_json_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    ::setenv("REJECTO_JSON_DIR", dir_.c_str(), 1);
  }
  void TearDown() override {
    ::unsetenv("REJECTO_JSON_DIR");
    std::filesystem::remove_all(dir_);
  }
  std::string ReadFile() const {
    std::ifstream in(dir_ / "BENCH_maar.json");
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::filesystem::path dir_;
};

TEST_F(BenchJsonTest, AppendBatchesStayOneArrayWithStampedRows) {
  AppendBenchJson({{"bench_a", "seconds", 0.25, "s",
                    {{"kernel", "k1"}, {"dataset", "ca-HepTh"}}},
                   {"bench_a", "throughput", 4.0e6, "items/s",
                    {{"kernel", "k1"}}}});
  AppendBenchJson({{"bench_b", "p99_ns", 231, "ns",
                    {{"readers", "2"}, {"note", "quote\" and \\ slash"}}}});

  std::vector<std::map<std::string, std::string>> rows;
  ASSERT_TRUE(JsonRows::Parse(ReadFile(), &rows)) << ReadFile();
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    for (const char* key : {"git_sha", "run_id", "cores", "bench", "metric",
                            "value", "unit", "labels"}) {
      EXPECT_EQ(row.count(key), 1u) << "missing " << key;
    }
    EXPECT_GE(std::stoll(row.at("cores")), 1);
    EXPECT_NE(row.at("git_sha"), "\"\"");
  }
  // One run_id per append batch, increasing across batches.
  EXPECT_EQ(rows[0].at("run_id"), rows[1].at("run_id"));
  EXPECT_GT(std::stoll(rows[2].at("run_id")), std::stoll(rows[0].at("run_id")));
  EXPECT_EQ(rows[0].at("metric"), "\"seconds\"");
  EXPECT_DOUBLE_EQ(std::stod(rows[0].at("value")), 0.25);
  EXPECT_DOUBLE_EQ(std::stod(rows[1].at("value")), 4.0e6);
  EXPECT_EQ(rows[2].at("unit"), "\"ns\"");
  EXPECT_NE(rows[2].at("labels").find("\"readers\": \"2\""),
            std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "BENCH_maar.json.tmp"));
}

TEST_F(BenchJsonTest, TruncatedFileIsRefusedNotOverwritten) {
  AppendBenchJson({{"bench_a", "seconds", 1.0, "s", {}}});
  std::string whole = ReadFile();
  // An interrupted writer's leftovers: the array cut off mid-record.
  const std::string truncated = whole.substr(0, whole.size() / 2);
  {
    std::ofstream out(dir_ / "BENCH_maar.json", std::ios::trunc);
    out << truncated;
  }
  EXPECT_THROW(AppendBenchJson({{"bench_a", "seconds", 2.0, "s", {}}}),
               std::runtime_error);
  EXPECT_EQ(ReadFile(), truncated);
}

}  // namespace
}  // namespace rejecto::bench
