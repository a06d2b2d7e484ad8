// The campaign resume contract, pinned end to end: a campaign stopped at
// ANY shard boundary and resumed produces a results file byte-identical
// to the uninterrupted run — across thread counts, wide widths and every
// registered cipher — and a resume against mismatched state is refused.
#include "campaign/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/checkpoint.h"
#include "common/json.h"

namespace grinch::campaign {
namespace {

namespace fs = std::filesystem;

class CampaignEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("grinch_campaign_" +
            std::string{::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()});
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// A quick clean-channel campaign (every gift64 trial verifies within
  /// ~300 encryptions, so the whole run is fast).
  static CampaignSpec quick_spec() {
    CampaignSpec spec;
    spec.name = "t";
    spec.cipher = "gift64";
    spec.trials = 10;
    spec.wide_width = 3;
    spec.budget = 20000;
    return spec;
  }

  /// Shards wider than the pool: run on kWideThreads threads, 17 trials
  /// at width 5 keep one shard's trials on several workers at once and
  /// leave trials of later shards in flight whenever a stop lands.
  static constexpr unsigned kWideThreads = 3;
  static CampaignSpec wide_spec(const char* cipher) {
    CampaignSpec spec = quick_spec();
    spec.cipher = cipher;
    spec.trials = 17;
    spec.wide_width = 5;
    return spec;
  }

  [[nodiscard]] Options options(const std::string& tag,
                                unsigned threads = 2) const {
    Options opts;
    opts.results_path = path(tag + ".jsonl");
    opts.checkpoint_path = path(tag + ".ckpt");
    opts.threads = threads;
    opts.checkpoint_every_shards = 1;
    return opts;
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in{p, std::ios::binary};
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  /// Uninterrupted baseline for `spec`, written under `tag`.
  std::string baseline(const CampaignSpec& spec, const std::string& tag) {
    const Outcome out = run_campaign(spec, options(tag));
    EXPECT_TRUE(out.ok()) << out.error;
    EXPECT_TRUE(out.completed);
    return slurp(path(tag + ".jsonl"));
  }

  fs::path dir_;
};

TEST_F(CampaignEngineTest, CompletesWithOneSelfDescribingRecordPerTrial) {
  const CampaignSpec spec = quick_spec();
  const Outcome out = run_campaign(spec, options("a"));
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_TRUE(out.completed);
  EXPECT_FALSE(out.interrupted);
  EXPECT_EQ(out.shards_done, out.shard_total);
  EXPECT_EQ(out.trials_done, spec.trials);

  const std::string bytes = slurp(path("a.jsonl"));
  std::uint64_t lines = 0;
  std::uint64_t verified = 0;
  std::uint64_t encryptions = 0;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t eol = bytes.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "results must end with a newline";
    std::string err;
    const auto rec = json::parse(bytes.substr(pos, eol - pos), &err);
    ASSERT_TRUE(rec.has_value()) << err;
    // The hand-rolled record writer must emit exactly the strict
    // compact form — parse + re-dump is a byte round-trip.
    EXPECT_EQ(rec->dump_compact(), bytes.substr(pos, eol - pos));
    EXPECT_EQ(rec->get("trial")->as_u64(), lines);
    EXPECT_EQ(rec->get("cipher")->as_string(), "gift64");
    EXPECT_EQ(rec->get("fault_profile")->as_string(), "clean");
    EXPECT_EQ(rec->get("wide_width")->as_u64(), spec.wide_width);
    ASSERT_NE(rec->get("victim_key"), nullptr);
    ASSERT_NE(rec->get("seed"), nullptr);
    ASSERT_NE(rec->get("fault_seed"), nullptr);
    if (rec->get("verified")->as_bool()) ++verified;
    encryptions += rec->get("total_encryptions")->as_u64();
    ++lines;
    pos = eol + 1;
  }
  EXPECT_EQ(lines, spec.trials);
  // The outcome's aggregate counters are the sum of the records.
  EXPECT_EQ(verified, out.counters.verified);
  EXPECT_EQ(encryptions, out.counters.total_encryptions);
}

TEST_F(CampaignEngineTest, ByteIdenticalAcrossThreadCounts) {
  std::vector<CampaignSpec> specs{quick_spec()};
  for (const char* cipher : {"gift64", "gift128", "present80"}) {
    specs.push_back(wide_spec(cipher));
  }
  for (const CampaignSpec& spec : specs) {
    const std::string tag =
        spec.cipher + "_w" + std::to_string(spec.wide_width);
    std::vector<std::string> files;
    for (const unsigned threads : {1u, kWideThreads, 4u}) {
      const std::string run_tag = tag + "_t" + std::to_string(threads);
      EXPECT_TRUE(run_campaign(spec, options(run_tag, threads)).completed)
          << run_tag;
      files.push_back(slurp(path(run_tag + ".jsonl")));
    }
    EXPECT_FALSE(files[0].empty()) << tag;
    EXPECT_EQ(files[0], files[1]) << tag;
    EXPECT_EQ(files[0], files[2]) << tag;
  }
}

TEST_F(CampaignEngineTest, WidthChangesOnlyTheWideWidthField) {
  // Lane results are width-independent (the wide conformance contract),
  // so campaigns differing only in wide_width agree on every byte except
  // the self-describing wide_width field itself.
  std::vector<std::string> normalized;
  for (const unsigned width : {1u, 3u, 7u}) {
    CampaignSpec spec = quick_spec();
    spec.wide_width = width;
    const std::string tag = "w" + std::to_string(width);
    EXPECT_TRUE(run_campaign(spec, options(tag)).completed);
    normalized.push_back(std::regex_replace(
        slurp(path(tag + ".jsonl")),
        std::regex{"\"wide_width\":[0-9]+"}, "\"wide_width\":0"));
  }
  EXPECT_EQ(normalized[0], normalized[1]);
  EXPECT_EQ(normalized[0], normalized[2]);
}

TEST_F(CampaignEngineTest, KillAtEveryShardBoundaryResumesByteIdentical) {
  // The acceptance sweep: for every registered cipher, stop the campaign
  // after exactly k flushed shards for every k, then resume — the final
  // results file must equal the uninterrupted baseline byte for byte.
  // A faulted profile keeps the noisy machinery (per-trial fault seeds,
  // partial results) inside the contract too, and shards wider than the
  // pool stop with trials of later shards in flight.
  struct Case {
    CampaignSpec spec;
    unsigned threads = 2;
  };
  std::vector<Case> cases;
  for (const char* cipher : {"gift64", "gift128", "present80"}) {
    CampaignSpec spec = quick_spec();
    spec.cipher = cipher;
    spec.trials = 6;
    spec.wide_width = 2;
    cases.push_back({spec});
    cases.push_back({wide_spec(cipher), kWideThreads});
  }
  {
    CampaignSpec noisy = quick_spec();
    noisy.fault_profile = "moderate";
    noisy.trials = 6;
    noisy.wide_width = 2;
    noisy.budget = 3000;  // forces partial results into the stream
    cases.push_back({noisy});
  }
  for (const auto& [spec, threads] : cases) {
    const std::string tag = spec.cipher + "_" + spec.fault_profile + "_w" +
                            std::to_string(spec.wide_width);
    const std::string base = baseline(spec, tag + "_base");
    const std::size_t shard_total =
        (spec.trials + spec.wide_width - 1) / spec.wide_width;
    ASSERT_GE(shard_total, 2u);
    for (std::size_t k = 1; k < shard_total; ++k) {
      const std::string run_tag =
          tag + "_k" + std::to_string(k);
      Options opts = options(run_tag, threads);
      opts.stop_after_flushed_shards = k;
      const Outcome stopped = run_campaign(spec, opts);
      ASSERT_TRUE(stopped.ok()) << stopped.error;
      EXPECT_TRUE(stopped.interrupted) << run_tag;
      EXPECT_EQ(stopped.shards_done, k) << run_tag;
      // The flushed prefix is a literal prefix of the baseline.
      const std::string prefix = slurp(opts.results_path);
      ASSERT_LT(prefix.size(), base.size()) << run_tag;
      EXPECT_EQ(prefix, base.substr(0, prefix.size())) << run_tag;

      Options resume = options(run_tag, threads);
      resume.resume = true;
      const Outcome finished = run_campaign(spec, resume);
      ASSERT_TRUE(finished.ok()) << finished.error;
      EXPECT_TRUE(finished.completed) << run_tag;
      EXPECT_EQ(slurp(resume.results_path), base) << run_tag;
    }
  }
}

TEST_F(CampaignEngineTest, ResumedCountersMatchUninterruptedRun) {
  CampaignSpec spec = quick_spec();
  spec.fault_profile = "moderate";
  spec.budget = 3000;
  const Outcome base = run_campaign(spec, options("base"));
  ASSERT_TRUE(base.completed);

  Options opts = options("int");
  opts.stop_after_flushed_shards = 2;
  ASSERT_TRUE(run_campaign(spec, opts).interrupted);
  Options resume = options("int");
  resume.resume = true;
  const Outcome finished = run_campaign(spec, resume);
  ASSERT_TRUE(finished.completed);
  EXPECT_EQ(finished.counters.total_encryptions,
            base.counters.total_encryptions);
  EXPECT_EQ(finished.counters.verified, base.counters.verified);
  EXPECT_EQ(finished.counters.partial, base.counters.partial);
  EXPECT_EQ(finished.counters.noise_restarts, base.counters.noise_restarts);
}

TEST_F(CampaignEngineTest, StopFlagDrainsToResumableCheckpoint) {
  const CampaignSpec spec = quick_spec();
  std::atomic<bool> stop{true};  // raised before any shard starts
  Options opts = options("s");
  opts.stop = &stop;
  const Outcome out = run_campaign(spec, opts);
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_TRUE(out.interrupted);
  EXPECT_EQ(out.shards_done, 0u);
  ASSERT_TRUE(fs::exists(opts.checkpoint_path));

  Options resume = options("s");
  resume.resume = true;
  const Outcome finished = run_campaign(spec, resume);
  ASSERT_TRUE(finished.completed);
  EXPECT_EQ(slurp(path("s.jsonl")), baseline(spec, "base"));
}

TEST_F(CampaignEngineTest, StopFromAnotherThreadMidRunResumesByteIdentical) {
  // A stop raised from another thread while workers are mid-trial, as a
  // signal handler raises it: another thread raises the flag as soon as
  // the first shard reaches the disk.  Whatever was flushed is a prefix
  // of the uninterrupted run, and resume completes it byte for byte.
  // The moderate channel at a 3000-encryption budget makes every trial
  // long enough for the stop to land with trials in flight.
  for (const char* cipher : {"gift64", "gift128", "present80"}) {
    CampaignSpec spec = wide_spec(cipher);
    spec.fault_profile = "moderate";
    spec.budget = 3000;
    const std::string tag = std::string{cipher} + "_stop";
    const std::string base = baseline(spec, tag + "_base");

    std::atomic<bool> stop{false};
    std::atomic<bool> finished{false};
    Options opts = options(tag, kWideThreads);
    opts.stop = &stop;
    std::thread stopper{[&]() {
      std::error_code ec;
      while (!finished.load()) {
        if (fs::file_size(opts.results_path, ec) > 0 && !ec) break;
        std::this_thread::yield();
      }
      stop.store(true);
    }};
    const Outcome stopped = run_campaign(spec, opts);
    finished.store(true);
    stopper.join();
    ASSERT_TRUE(stopped.ok()) << stopped.error;
    EXPECT_TRUE(stopped.interrupted || stopped.completed) << tag;
    const std::string prefix = slurp(opts.results_path);
    ASSERT_LE(prefix.size(), base.size()) << tag;
    EXPECT_EQ(prefix, base.substr(0, prefix.size())) << tag;

    Options resume = options(tag, kWideThreads);
    resume.resume = true;
    const Outcome done = run_campaign(spec, resume);
    ASSERT_TRUE(done.ok()) << done.error;
    EXPECT_TRUE(done.completed) << tag;
    EXPECT_EQ(slurp(resume.results_path), base) << tag;
  }
}

TEST_F(CampaignEngineTest, ResumeRejectsSpecMismatch) {
  const CampaignSpec spec = quick_spec();
  Options opts = options("m");
  opts.stop_after_flushed_shards = 1;
  ASSERT_TRUE(run_campaign(spec, opts).interrupted);

  CampaignSpec other = spec;
  other.seed ^= 1;
  Options resume = options("m");
  resume.resume = true;
  const Outcome out = run_campaign(other, resume);
  EXPECT_FALSE(out.ok());
  EXPECT_NE(out.error.find("different campaign"), std::string::npos);
}

TEST_F(CampaignEngineTest, ResumeRejectsTamperedResults) {
  const CampaignSpec spec = quick_spec();
  Options opts = options("tam");
  opts.stop_after_flushed_shards = 2;
  ASSERT_TRUE(run_campaign(spec, opts).interrupted);

  std::string bytes = slurp(opts.results_path);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x20;
  std::ofstream{opts.results_path, std::ios::binary | std::ios::trunc}
      << bytes;

  Options resume = options("tam");
  resume.resume = true;
  const Outcome out = run_campaign(spec, resume);
  EXPECT_FALSE(out.ok());
  EXPECT_NE(out.error.find("does not match"), std::string::npos);
}

TEST_F(CampaignEngineTest, ResumeRejectsTruncatedResults) {
  const CampaignSpec spec = quick_spec();
  Options opts = options("tr");
  opts.stop_after_flushed_shards = 2;
  ASSERT_TRUE(run_campaign(spec, opts).interrupted);
  const std::string bytes = slurp(opts.results_path);
  fs::resize_file(opts.results_path, bytes.size() / 2);

  Options resume = options("tr");
  resume.resume = true;
  const Outcome out = run_campaign(spec, resume);
  EXPECT_FALSE(out.ok());
  EXPECT_NE(out.error.find("shorter"), std::string::npos);
}

TEST_F(CampaignEngineTest, ResumeDropsBytesPastTheCheckpointedPrefix) {
  // A SIGKILL can land mid-append: the results file then carries bytes
  // past the last checkpoint.  Resume must discard them and still
  // converge on the baseline.
  const CampaignSpec spec = quick_spec();
  const std::string base = baseline(spec, "base");
  Options opts = options("g");
  opts.stop_after_flushed_shards = 1;
  ASSERT_TRUE(run_campaign(spec, opts).interrupted);
  {
    std::ofstream out{opts.results_path,
                      std::ios::binary | std::ios::app};
    out << "{\"torn\":tru";  // half-written record
  }
  Options resume = options("g");
  resume.resume = true;
  const Outcome finished = run_campaign(spec, resume);
  ASSERT_TRUE(finished.ok()) << finished.error;
  EXPECT_TRUE(finished.completed);
  EXPECT_EQ(slurp(resume.results_path), base);
}

TEST_F(CampaignEngineTest, ResumingFinishedCampaignIsANoOp) {
  const CampaignSpec spec = quick_spec();
  const std::string base = baseline(spec, "d");
  Options resume = options("d");
  resume.resume = true;
  const Outcome out = run_campaign(spec, resume);
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.trials_done, spec.trials);
  EXPECT_EQ(slurp(path("d.jsonl")), base);
}

TEST_F(CampaignEngineTest, BadSpecAndMissingPathsAreHardErrors) {
  CampaignSpec bad = quick_spec();
  bad.cipher = "rot13";
  EXPECT_FALSE(run_campaign(bad, options("x")).ok());

  Options no_results;
  EXPECT_FALSE(run_campaign(quick_spec(), no_results).ok());

  Options no_ckpt = options("y");
  no_ckpt.checkpoint_path.clear();
  no_ckpt.resume = true;
  EXPECT_FALSE(run_campaign(quick_spec(), no_ckpt).ok());
}

}  // namespace
}  // namespace grinch::campaign
