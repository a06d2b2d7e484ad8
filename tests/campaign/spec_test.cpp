// CampaignSpec: validation, canonical serialization and the parse
// direction (unknown keys rejected, defaults preserved, fingerprints
// tracking identity).
#include "campaign/spec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

namespace grinch::campaign {
namespace {

TEST(CampaignSpec, DefaultsValidate) {
  const CampaignSpec spec;
  std::string err;
  EXPECT_TRUE(spec.validate(&err)) << err;
}

TEST(CampaignSpec, ValidateRejectsBadFields) {
  const auto rejects = [](auto&& mutate, const char* what) {
    CampaignSpec spec;
    mutate(spec);
    std::string err;
    EXPECT_FALSE(spec.validate(&err)) << what;
    EXPECT_FALSE(err.empty()) << what;
  };
  rejects([](CampaignSpec& s) { s.cipher = "des"; }, "cipher");
  rejects([](CampaignSpec& s) { s.fault_profile = "stormy"; }, "profile");
  rejects([](CampaignSpec& s) { s.trials = 0; }, "trials");
  rejects([](CampaignSpec& s) { s.budget = 0; }, "budget");
  rejects([](CampaignSpec& s) { s.wide_width = 0; }, "width 0");
  rejects([](CampaignSpec& s) { s.wide_width = 65; }, "width 65");
  rejects([](CampaignSpec& s) { s.line_words = 3; }, "line words");
  rejects([](CampaignSpec& s) { s.probing_round = 0; }, "round");
  rejects([](CampaignSpec& s) { s.vote_threshold = 17; }, "vote");
}

TEST(CampaignSpec, ValidateRejectsLinesThatMergeCandidates) {
  // A segment's candidates must predict S-Box indices on distinct lines.
  // GIFT-64's key pair sits on nibble bits 0-1 and PRESENT-80 guesses the
  // whole nibble, so only 1-word lines separate them; GIFT-128's pair
  // sits on bits 1-2, so 2-word lines still do.
  const auto check = [](const char* cipher, unsigned line_words) {
    CampaignSpec spec;
    spec.cipher = cipher;
    spec.line_words = line_words;
    std::string err;
    const bool ok = spec.validate(&err);
    EXPECT_TRUE(ok || (err.find(cipher) != std::string::npos &&
                       err.find("line_words " + std::to_string(line_words)) !=
                           std::string::npos))
        << err;
    return ok;
  };
  EXPECT_FALSE(check("gift64", 2));
  EXPECT_FALSE(check("gift128", 4));
  EXPECT_FALSE(check("present80", 2));
  EXPECT_TRUE(check("gift128", 2));
  for (const char* cipher : {"gift64", "gift128", "present80"}) {
    EXPECT_TRUE(check(cipher, 1)) << cipher;
    EXPECT_FALSE(check(cipher, 8)) << cipher;
  }
}

TEST(CampaignSpec, CanonicalRoundTripsThroughParse) {
  CampaignSpec spec;
  spec.name = "roundtrip";
  spec.cipher = "present80";
  spec.trials = 17;
  spec.seed = 0xDEADBEEFCAFEull;
  spec.fault_seed = 7;
  spec.wide_width = 5;
  spec.budget = 1234;
  spec.fault_profile = "moderate";
  spec.vote_threshold = 3;
  const std::string canonical = spec.canonical();
  std::string err;
  const auto parsed = CampaignSpec::parse(canonical, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->canonical(), canonical);
  EXPECT_EQ(parsed->fingerprint(), spec.fingerprint());
}

TEST(CampaignSpec, MissingKeysKeepDefaults) {
  std::string err;
  const auto parsed =
      CampaignSpec::parse(R"({"cipher":"gift128","trials":9})", &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->cipher, "gift128");
  EXPECT_EQ(parsed->trials, 9u);
  const CampaignSpec defaults;
  EXPECT_EQ(parsed->budget, defaults.budget);
  EXPECT_EQ(parsed->wide_width, defaults.wide_width);
  EXPECT_EQ(parsed->fault_profile, defaults.fault_profile);
}

TEST(CampaignSpec, UnknownKeysRejected) {
  std::string err;
  EXPECT_FALSE(CampaignSpec::parse(R"({"trils":9})", &err).has_value());
  EXPECT_NE(err.find("trils"), std::string::npos);
}

TEST(CampaignSpec, ValuesThatDoNotFitTheirFieldRejected) {
  // Each of these would otherwise run a campaign other than the one the
  // file names: a number too large for an `unsigned` field wraps, and a
  // value of another kind leaves the field at its default.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"wide_width":4294967304})", "wide_width"},
      {R"({"line_words":4294967297})", "line_words"},
      {R"({"probing_round":4294967297})", "probing_round"},
      {R"({"vote_threshold":4294967298})", "vote_threshold"},
      {R"({"seed":"12345"})", "seed"},
      {R"({"seed":18446744073709551616})", "seed"},
      {R"({"finish":"yes"})", "finish"},
      {R"({"finish":1})", "finish"},
      {R"({"trials":-1})", "trials"},
      {R"({"budget":2.5})", "budget"},
      {R"({"fault_seed":true})", "fault_seed"},
      {R"({"finish_budget":null})", "finish_budget"},
      {R"({"cipher":7})", "cipher"},
      {R"({"name":["x"]})", "name"},
      {R"({"fault_profile":{}})", "fault_profile"},
  };
  for (const auto& [text, key] : cases) {
    std::string err;
    EXPECT_FALSE(CampaignSpec::parse(text, &err).has_value()) << text;
    EXPECT_NE(err.find(std::string{"'"} + key + "'"), std::string::npos)
        << text << ": " << err;
  }
}

TEST(CampaignSpec, WholeNumbersUpToTheFieldMaximumAccepted) {
  std::string err;
  const auto parsed = CampaignSpec::parse(
      R"({"seed":18446744073709551615,"trials":3.0,"wide_width":64,)"
      R"("finish":true,"name":"edge"})",
      &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->seed, ~std::uint64_t{0});
  EXPECT_EQ(parsed->trials, 3u);
  EXPECT_EQ(parsed->wide_width, 64u);
  EXPECT_TRUE(parsed->finish);
  EXPECT_EQ(parsed->name, "edge");
}

TEST(CampaignSpec, MalformedJsonRejectedWithDiagnostic) {
  std::string err;
  EXPECT_FALSE(CampaignSpec::parse("{", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(CampaignSpec::parse("[1,2]", &err).has_value());
}

TEST(CampaignSpec, FingerprintTracksIdentity) {
  CampaignSpec a;
  CampaignSpec b;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.trials = a.trials + 1;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = a;
  b.wide_width = a.wide_width + 1;  // width is part of the identity
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(CampaignSpec, FaultsCarrySpecSeedAndProfile) {
  CampaignSpec spec;
  spec.fault_profile = "moderate";
  spec.fault_seed = 99;
  const target::FaultProfile faults = spec.faults();
  EXPECT_TRUE(faults.any());
  EXPECT_EQ(faults.seed, 99u);
  EXPECT_DOUBLE_EQ(faults.false_absent_rate,
                   target::FaultProfile::moderate().false_absent_rate);
}

TEST(CampaignSpec, EffectiveVoteThresholdResolvesAuto) {
  CampaignSpec spec;
  EXPECT_EQ(spec.effective_vote_threshold(), 1u);  // clean channel
  spec.fault_profile = "moderate";
  EXPECT_EQ(spec.effective_vote_threshold(), 2u);  // noisy default
  spec.vote_threshold = 5;
  EXPECT_EQ(spec.effective_vote_threshold(), 5u);  // explicit wins
}

}  // namespace
}  // namespace grinch::campaign
