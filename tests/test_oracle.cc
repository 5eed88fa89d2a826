// The differential oracle, tested three ways: known-answer command
// sequences where both models' verdicts are asserted directly, property
// runs (clean fuzz seeds must stay divergence-free; flips must match the
// reference exactly), and deliberate fault injection proving the check
// actually fires and shrinks to a replayable reproducer.
#include <gtest/gtest.h>

#include "sim/runner/runner.h"
#include "check/generator.h"
#include "check/oracle.h"
#include "dram/device.h"

namespace ht {
namespace {

// A bare Tiny device with the oracle attached; commands are issued at
// explicitly computed cycles so each verdict is a known answer.
class OracleKnownAnswerTest : public ::testing::Test {
 protected:
  OracleKnownAnswerTest()
      : config_(DramConfig::Tiny()), device_(config_, 0), oracle_(device_, nullptr, {}) {
    device_.set_check_observer(&oracle_);
  }
  ~OracleKnownAnswerTest() override { device_.set_check_observer(nullptr); }

  DramConfig config_;
  DramDevice device_;
  DeviceOracle oracle_;
};

TEST_F(OracleKnownAnswerTest, TimingSequenceVerdictsAgree) {
  const DramTiming& t = config_.timing;
  const Cycle act_at = 10;
  EXPECT_EQ(device_.Issue(DdrCommand::Act(0, 0, 3), act_at), TimingVerdict::kOk);

  // RD one cycle before tRCD elapses must be rejected by both models;
  // exactly at tRCD it must pass.
  EXPECT_EQ(device_.Issue(DdrCommand::Rd(0, 0, 1), act_at + t.tRCD - 1),
            TimingVerdict::kTooEarly);
  EXPECT_EQ(device_.Issue(DdrCommand::Rd(0, 0, 1), act_at + t.tRCD), TimingVerdict::kOk);

  // The bank is open: a second ACT is structurally illegal whenever it
  // lands, and RD on the *other* (closed) bank is too.
  EXPECT_EQ(device_.Issue(DdrCommand::Act(0, 0, 4), act_at + t.tRC),
            TimingVerdict::kBankAlreadyOpen);
  EXPECT_EQ(device_.Issue(DdrCommand::Rd(0, 1, 0), act_at + t.tRC),
            TimingVerdict::kBankNotOpen);

  // PRE obeys tRAS / read-to-precharge; the next ACT obeys tRC and tRP.
  const DdrCommand pre = DdrCommand::Pre(0, 0);
  const Cycle pre_at = device_.EarliestCycle(pre);
  EXPECT_EQ(device_.Issue(pre, pre_at - 1), TimingVerdict::kTooEarly);
  EXPECT_EQ(device_.Issue(pre, pre_at), TimingVerdict::kOk);
  const DdrCommand act2 = DdrCommand::Act(0, 0, 5);
  const Cycle act2_at = device_.EarliestCycle(act2);
  EXPECT_GE(act2_at, std::max(act_at + t.tRC, pre_at + t.tRP));
  EXPECT_EQ(device_.Issue(act2, act2_at - 1), TimingVerdict::kTooEarly);
  EXPECT_EQ(device_.Issue(act2, act2_at), TimingVerdict::kOk);

  // REF needs all banks idle: reject while bank 0 is open, accept after
  // PREA.
  EXPECT_EQ(device_.Issue(DdrCommand::Ref(0), act2_at + t.tRAS + 1),
            TimingVerdict::kBanksNotIdle);
  const Cycle prea_at = device_.EarliestCycle(DdrCommand::PreAll(0));
  EXPECT_EQ(device_.Issue(DdrCommand::PreAll(0), prea_at), TimingVerdict::kOk);
  const Cycle ref_at = device_.EarliestCycle(DdrCommand::Ref(0));
  EXPECT_EQ(device_.Issue(DdrCommand::Ref(0), ref_at), TimingVerdict::kOk);

  oracle_.FinalCheck();
  EXPECT_TRUE(oracle_.ok()) << oracle_.Report();
  EXPECT_EQ(oracle_.commands_observed(), 12u);
}

TEST_F(OracleKnownAnswerTest, PreOnIdleBankIsANop) {
  EXPECT_EQ(device_.Issue(DdrCommand::Pre(0, 0), 5), TimingVerdict::kOk);
  EXPECT_EQ(device_.Issue(DdrCommand::Pre(0, 0), 6), TimingVerdict::kOk);
  oracle_.FinalCheck();
  EXPECT_TRUE(oracle_.ok()) << oracle_.Report();
}

// Hammering one row past the MAC must flip its blast-radius neighbours,
// and the oracle's shadow disturbance model must predict every flip
// (victim and aggressor, in order).
TEST(OracleDisturbanceTest, BlastRadiusFlipsMatchReference) {
  DramConfig config = DramConfig::Tiny();
  config.disturbance.mac = 6;
  config.trr.enabled = false;
  DramDevice device(config, 0);
  DeviceOracle oracle(device, nullptr, {});
  device.set_check_observer(&oracle);

  const uint32_t row = 5;
  Cycle now = 10;
  for (int i = 0; i < 40; ++i) {
    const DdrCommand act = DdrCommand::Act(0, 0, row);
    now = std::max(now, device.EarliestCycle(act));
    ASSERT_EQ(device.Issue(act, now), TimingVerdict::kOk);
    const DdrCommand pre = DdrCommand::Pre(0, 0);
    now = std::max(now + 1, device.EarliestCycle(pre));
    ASSERT_EQ(device.Issue(pre, now), TimingVerdict::kOk);
  }
  oracle.FinalCheck();
  device.set_check_observer(nullptr);

  EXPECT_GT(device.total_flip_events(), 0u);
  EXPECT_TRUE(oracle.ok()) << oracle.Report();
}

TEST(OracleFuzzTest, CleanSeedsHaveNoDivergences) {
  for (const uint64_t seed : {1ull, 99ull, 0xC0FFEEull}) {
    FuzzCase fuzz_case;
    fuzz_case.seed = seed;
    fuzz_case.steps = 6000;
    const DeviceFuzzOutcome outcome = RunDeviceFuzz(fuzz_case);
    EXPECT_FALSE(outcome.failed()) << outcome.report;
    EXPECT_GT(outcome.issued, fuzz_case.steps / 4);
  }
}

TEST(OracleFuzzTest, DeterministicUnderSameSeed) {
  FuzzCase fuzz_case;
  fuzz_case.seed = 17;
  fuzz_case.steps = 6000;
  const DeviceFuzzOutcome a = RunDeviceFuzz(fuzz_case);
  const DeviceFuzzOutcome b = RunDeviceFuzz(fuzz_case);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.illegal_attempts, b.illegal_attempts);
  EXPECT_EQ(a.flips, b.flips);
}

// Fault injection: breaking the reference model mid-run MUST surface as
// divergences — this is the proof that the oracle is actually wired to
// the command stream and not vacuously green.
TEST(OracleInjectionTest, InjectedDivergenceIsCaught) {
  FuzzCase fuzz_case;
  fuzz_case.seed = 42;
  fuzz_case.steps = 6000;
  fuzz_case.inject_after = 50;
  const DeviceFuzzOutcome outcome = RunDeviceFuzz(fuzz_case);
  EXPECT_TRUE(outcome.failed());
  EXPECT_GT(outcome.oracle_divergences, 0u);
  EXPECT_NE(outcome.report.find("mismatch"), std::string::npos) << outcome.report;
  // The same case with injection off is clean: the failure is the
  // injection, not the seed.
  fuzz_case.inject_after = 0;
  EXPECT_FALSE(RunDeviceFuzz(fuzz_case).failed());
}

TEST(OracleInjectionTest, ShrunkReproducerIsMinimalAndReplayable) {
  FuzzCase fuzz_case;
  fuzz_case.seed = 42;
  fuzz_case.steps = 6000;
  fuzz_case.inject_after = 50;
  const FuzzCase shrunk = ShrinkDeviceFuzz(fuzz_case);
  EXPECT_LT(shrunk.steps, fuzz_case.steps);
  EXPECT_TRUE(RunDeviceFuzz(shrunk).failed());

  // The seed line round-trips into an identical, still-failing case.
  const std::optional<FuzzCase> parsed = ParseSeedLine(shrunk.ToSeedLine());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, shrunk.seed);
  EXPECT_EQ(parsed->steps, shrunk.steps);
  EXPECT_EQ(parsed->feature_mask, shrunk.feature_mask);
  EXPECT_EQ(parsed->inject_after, shrunk.inject_after);
  EXPECT_TRUE(RunDeviceFuzz(*parsed).failed());
}

TEST(SeedLineTest, RoundTripsAndRejectsGarbage) {
  FuzzCase scenario;
  scenario.kind = FuzzCase::Kind::kScenario;
  scenario.seed = 0xABCDEF;
  scenario.cycles = 90000;
  scenario.feature_mask = kFuzzNoTrr | kFuzzNoEcc;
  const std::optional<FuzzCase> parsed = ParseSeedLine(scenario.ToSeedLine());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, FuzzCase::Kind::kScenario);
  EXPECT_EQ(parsed->seed, scenario.seed);
  EXPECT_EQ(parsed->cycles, scenario.cycles);
  EXPECT_EQ(parsed->feature_mask, scenario.feature_mask);

  EXPECT_FALSE(ParseSeedLine("").has_value());
  EXPECT_FALSE(ParseSeedLine("htfuzz v2 device seed=1").has_value());
  EXPECT_FALSE(ParseSeedLine("htfuzz v1 banana seed=1").has_value());
  EXPECT_FALSE(ParseSeedLine("htfuzz v1 device steps=10").has_value());  // No seed.
  EXPECT_FALSE(ParseSeedLine("htfuzz v1 device seed=1 bogus=2").has_value());
  EXPECT_FALSE(ParseSeedLine("htfuzz v1 device seed=zzz").has_value());
}

// Full-system run with the oracle on every channel: the MC's request
// scheduling, the software defense's refreshes, and the ACT-counter
// shadow all have to agree with the reference for the whole run.
TEST(SystemOracleTest, CleanOnDefendedScenario) {
  ScenarioSpec spec;
  spec.attack = AttackKind::kDoubleSided;
  spec.defense = DefenseKind::kSwRefresh;
  spec.run_cycles = 120000;
  spec.pages_per_tenant = 128;
  SystemOracle oracle;
  uint64_t commands = 0;
  ScenarioHooks hooks;
  hooks.on_start = [&](System& system) { oracle.Attach(system); };
  hooks.on_finish = [&](System& system) {
    oracle.FinalCheck();
    commands = oracle.commands_observed();
    oracle.Detach(system);
  };
  RunScenario(spec, nullptr, &hooks);
  EXPECT_TRUE(oracle.ok()) << oracle.Report();
  EXPECT_GT(commands, 1000u);
  // The scheduler oracle rides along: every scan and every memo an issue
  // or an enqueue set was checked against the reference.
  EXPECT_GT(oracle.scheduler().scans_checked(), 1000u);
  EXPECT_GT(oracle.scheduler().memos_checked(), 1000u);
}

TEST(SystemOracleTest, InjectionFiresAtSystemLevel) {
  ScenarioSpec spec;
  spec.attack = AttackKind::kDoubleSided;
  spec.run_cycles = 60000;
  spec.pages_per_tenant = 128;
  OracleOptions options;
  options.break_reference_after = 100;
  SystemOracle oracle(options);
  ScenarioHooks hooks;
  hooks.on_start = [&](System& system) { oracle.Attach(system); };
  hooks.on_finish = [&](System& system) {
    oracle.FinalCheck();
    oracle.Detach(system);
  };
  RunScenario(spec, nullptr, &hooks);
  EXPECT_FALSE(oracle.ok());
}

}  // namespace
}  // namespace ht
