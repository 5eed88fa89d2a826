#include "sim/runner/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <utility>

#include "attack/hammer.h"
#include "attack/pattern.h"
#include "attack/planner.h"
#include "common/telemetry/binary.h"
#include "common/telemetry/profile.h"
#include "common/telemetry/report.h"
#include "common/thread_pool.h"
#include "os/address_space.h"
#include "sim/workloads.h"

namespace ht {

Cycle BenchSmokeCap() {
  static const Cycle cap = [] {
    const char* env = std::getenv("HT_BENCH_SMOKE");
    if (env == nullptr || *env == '\0') {
      return kNeverCycle;
    }
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    return (end != env && parsed > 0) ? static_cast<Cycle>(parsed) : Cycle{20000};
  }();
  return cap;
}

RunnerTelemetryOptions& RunnerTelemetry() {
  static RunnerTelemetryOptions options;
  return options;
}

namespace {

// Accumulated across RunScenarios calls (an experiment main typically
// runs several batches); the output files are rewritten after each batch
// so a crash mid-run still leaves the completed scenarios on disk.
struct RunnerTelemetryState {
  std::unique_ptr<TraceSink> sink = std::make_unique<TraceSink>();
  std::vector<JsonValue> reports;
  size_t scenarios_started = 0;
};

RunnerTelemetryState& TelemetryState() {
  static RunnerTelemetryState state;
  return state;
}

}  // namespace

void ResetRunnerTelemetry() {
  TelemetryState().sink = std::make_unique<TraceSink>();
  TelemetryState().reports.clear();
  TelemetryState().scenarios_started = 0;
}

JsonValue ScenarioSpecToJson(const ScenarioSpec& spec) {
  JsonValue config = JsonValue::Object();
  config.Set("defense", JsonValue::Str(ToString(spec.defense)));
  config.Set("hw_mitigation", JsonValue::Str(ToString(spec.hw)));
  config.Set("attack", JsonValue::Str(ToString(spec.attack)));
  config.Set("alloc", JsonValue::Str(ToString(spec.system.alloc)));
  config.Set("sides", JsonValue::Uint(spec.sides));
  config.Set("pattern_seed", JsonValue::Uint(spec.pattern_seed));
  config.Set("act_threshold", JsonValue::Uint(spec.act_threshold));
  config.Set("run_cycles", JsonValue::Uint(std::min(spec.run_cycles, BenchSmokeCap())));
  config.Set("tenants", JsonValue::Uint(spec.tenants));
  config.Set("pages_per_tenant", JsonValue::Uint(spec.pages_per_tenant));
  config.Set("benign_corunner", JsonValue::Bool(spec.benign_corunner));
  config.Set("traffic_mix", JsonValue::Str(spec.traffic_mix));
  config.Set("churn_rate", JsonValue::Double(spec.churn_rate));
  config.Set("epochs", JsonValue::Uint(spec.epochs));
  config.Set("attacker_slot", JsonValue::Uint(spec.attacker_slot));
  config.Set("victim_slot", JsonValue::Uint(spec.victim_slot));
  config.Set("skip_idle", JsonValue::Bool(spec.system.skip_idle));
  config.Set("channels", JsonValue::Uint(spec.system.dram.org.channels));
  config.Set("cores", JsonValue::Uint(spec.system.cores));
  return config;
}

JsonValue ScenarioResultToJson(const ScenarioResult& result) {
  JsonValue out = JsonValue::Object();
  out.Set("flip_events", JsonValue::Uint(result.security.flip_events));
  out.Set("cross_domain_flips", JsonValue::Uint(result.security.cross_domain_flips));
  out.Set("intra_domain_flips", JsonValue::Uint(result.security.intra_domain_flips));
  out.Set("corrupted_lines", JsonValue::Uint(result.security.corrupted_lines));
  out.Set("dos_lockups", JsonValue::Uint(result.security.dos_lockups));
  out.Set("ops", JsonValue::Uint(result.perf.ops));
  out.Set("cycles", JsonValue::Uint(result.perf.cycles));
  out.Set("ops_per_kcycle", JsonValue::Double(result.perf.ops_per_kcycle));
  out.Set("row_hit_rate", JsonValue::Double(result.perf.row_hit_rate));
  out.Set("avg_read_latency", JsonValue::Double(result.perf.avg_read_latency));
  out.Set("p99_read_latency", JsonValue::Double(result.perf.p99_read_latency));
  out.Set("extra_acts", JsonValue::Uint(result.perf.extra_acts));
  out.Set("defense_interrupts", JsonValue::Uint(result.defense_interrupts));
  out.Set("page_moves", JsonValue::Uint(result.page_moves));
  out.Set("throttle_stalls", JsonValue::Uint(result.throttle_stalls));
  out.Set("mitigation_refreshes", JsonValue::Uint(result.mitigation_refreshes));
  out.Set("attack_planned", JsonValue::Bool(result.attack_planned));
  out.Set("escaped_flips", JsonValue::Uint(result.escaped_flips));
  out.Set("tenants_hit", JsonValue::Uint(result.tenants_hit));
  out.Set("churn_events", JsonValue::Uint(result.churn_events));
  out.Set("flips_escaped_per_tenant", JsonValue::Double(result.flips_escaped_per_tenant));
  out.Set("tenant_map_fingerprint", JsonValue::Uint(result.tenant_map_fingerprint));
  return out;
}

namespace {

// Builds the attack plan for `attacker` against `victim` and installs the
// resulting stream/engine — the cross-domain sandwich when adjacency
// allows it, falling back to hammering the attacker's own rows (and
// clearing result->attack_planned) when isolation denies a plan. Shared
// by the classic two-tenant path and the cloud tenant-population path.
void PlanAndInstallAttack(System& system, const ScenarioSpec& spec, DomainId attacker,
                          DomainId victim, ScenarioResult* result) {
  std::optional<HammerPlan> plan;
  std::optional<HammeringPattern> pattern;
  if (spec.attack != AttackKind::kNone) {
    if (spec.attack == AttackKind::kManySided) {
      plan = PlanManySided(system.kernel(), attacker, spec.sides);
    } else if (spec.attack == AttackKind::kPattern) {
      // The pattern determines how many distinct rows (aggressors +
      // fillers) the planner must find in one bank.
      pattern = BuildScenarioPattern(spec.system.dram, spec.pattern_seed);
      plan = PlanManySided(system.kernel(), attacker, pattern->total_ids(), 2);
      if (!plan.has_value()) {
        result->attack_planned = false;
        pattern.reset();  // Fall back to plain double-sided hammering.
        plan = PlanManySided(system.kernel(), attacker, 2);
      }
    } else if (spec.attack == AttackKind::kHalfDouble) {
      plan = PlanHalfDoubleCross(system.kernel(), attacker, victim);
      if (!plan.has_value()) {
        result->attack_planned = false;
        plan = PlanManySided(system.kernel(), attacker, 2, 4);
      }
    } else {
      plan = PlanDoubleSidedCross(system.kernel(), attacker, victim);
      if (!plan.has_value()) {
        result->attack_planned = false;
        plan = PlanManySided(system.kernel(), attacker, 2);
      }
    }
  }

  if (!plan.has_value()) {
    return;
  }
  switch (spec.attack) {
    case AttackKind::kNone:
      break;
    case AttackKind::kDoubleSided:
    case AttackKind::kManySided:
    case AttackKind::kHalfDouble: {
      HammerConfig hammer;
      hammer.aggressors = plan->aggressor_vas;
      system.AssignCore(0, attacker, std::make_unique<HammerStream>(hammer));
      break;
    }
    case AttackKind::kPattern: {
      if (pattern.has_value()) {
        PatternStreamConfig stream;
        stream.pattern = *pattern;
        stream.vas = plan->aggressor_vas;
        system.AssignCore(0, attacker,
                          std::make_unique<PatternHammerStream>(std::move(stream)));
      } else {
        HammerConfig hammer;
        hammer.aggressors = plan->aggressor_vas;
        system.AssignCore(0, attacker, std::make_unique<HammerStream>(hammer));
      }
      break;
    }
    case AttackKind::kDma: {
      DmaConfig dma;
      dma.pattern = plan->aggressor_addrs;
      dma.period = 8;
      system.AddDma(attacker, dma);
      break;
    }
    case AttackKind::kAdaptive: {
      auto decoys = PlanManySided(system.kernel(), attacker, 2, 2,
                                  BankTriple{plan->channel, plan->rank, plan->bank});
      AdaptiveHammerConfig adaptive;
      adaptive.aggressors = plan->aggressor_vas;
      adaptive.decoys = decoys.has_value() ? decoys->aggressor_vas : plan->aggressor_vas;
      adaptive.counter_threshold = spec.act_threshold;
      adaptive.safety_margin = spec.act_threshold / 10;
      system.AssignCore(0, attacker, std::make_unique<AdaptiveHammerStream>(adaptive));
      break;
    }
  }
}

// SplitMix64-style mixer for deriving the cloud path's independent seeds
// (tenant manager, per-carrier mux RNGs) from the scenario seed.
uint64_t CloudSeed(uint64_t seed, uint64_t salt) {
  uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ScenarioResult RunScenario(ScenarioSpec spec, ScenarioTelemetry* telemetry,
                           const ScenarioHooks* hooks) {
  const auto wall_start = std::chrono::steady_clock::now();
  ProfilePhase total_phase("runner.scenario");
  ApplyDefensePreset(spec.system, spec.defense, spec.act_threshold);
  spec.run_cycles = std::min(spec.run_cycles, BenchSmokeCap());
  if (spec.randomize_reset.has_value()) {
    spec.system.mc.act_counter.randomize_reset = *spec.randomize_reset;
  }
  if (spec.seed != 0) {
    // Perturb every RNG stream deterministically; distinct multipliers
    // keep the derived seeds decorrelated from one another.
    const uint64_t mix = spec.seed * 0x9E3779B97F4A7C15ull;
    spec.system.dram.flip_seed ^= mix;
    spec.system.dram.remap.seed ^= mix * 3;
    spec.system.mc.act_counter.rng_seed ^= mix * 5;
  }
  if (telemetry != nullptr) {
    spec.system.telemetry.trace = telemetry->trace;
    spec.system.telemetry.sample_every = telemetry->sample_every;
  }
  System system(spec.system);
  ScenarioResult result;

  if (!spec.traffic_mix.empty()) {
    // --- Cloud host path: tenant population + epoch loop ------------------
    TenantConfig tenant_config;
    tenant_config.slots = spec.tenants;
    tenant_config.pages_per_slot = spec.pages_per_tenant;
    tenant_config.mix = spec.traffic_mix;
    tenant_config.churn_rate = spec.churn_rate;
    tenant_config.attacker_slot = spec.attacker_slot;
    tenant_config.victim_slot = spec.victim_slot;
    // Co-locate the pinned pair in row-group turns and give the attacker
    // enough rows for the widest pattern plan. Under permissive placement
    // this yields the cross-tenant sandwich; isolation-centric placement
    // breaks it, which the planner reports as attack_planned = false.
    const uint64_t row_group = PagesPerRowGroup(system.mc().mapper());
    tenant_config.placement_chunk = row_group;
    tenant_config.attacker_pages = std::max<uint64_t>(spec.pages_per_tenant, 16 * row_group);
    tenant_config.victim_pages = std::max<uint64_t>(spec.pages_per_tenant, 2 * row_group);
    tenant_config.seed = CloudSeed(spec.seed, 0x7e);
    tenant_config.stream_factory = [](const std::string& kind, DomainId domain, VirtAddr base,
                                      uint64_t bytes, uint64_t seed) {
      // Effectively unbounded ops: tenant traffic never self-halts.
      return MakeWorkload(kind, domain, base, bytes, ~0ull >> 1, seed);
    };
    TenantManager tenants(&system.kernel(), &system.llc(), tenant_config);
    tenants.Init();
    const DomainId attacker = tenants.DomainOf(spec.attacker_slot);
    const DomainId victim = tenants.DomainOf(spec.victim_slot);
    system.InstallDefense(MakeDefense(spec.defense, spec.system.dram));
    InstallHwMitigation(system, spec.hw);
    if (attacker != kInvalidDomain) {
      PlanAndInstallAttack(system, spec, attacker, victim, &result);
    } else {
      result.attack_planned = false;
    }
    // Every non-attack core is a carrier multiplexing a shard of the
    // tenant population; VAs are domain-namespaced so the mux translator
    // recovers the issuing tenant per access.
    const uint32_t carriers = system.core_count() > 1 ? system.core_count() - 1 : 0;
    for (uint32_t carrier = 0; carrier < carriers; ++carrier) {
      system.AssignMuxCore(carrier + 1, kInvalidDomain,
                           std::make_unique<TenantMuxStream>(
                               &tenants, carrier, carriers, CloudSeed(spec.seed, carrier + 2)));
    }

    if (hooks != nullptr && hooks->on_start) {
      hooks->on_start(system);
    }

    {
      // Epoch loop: run a window, classify the window's flips against
      // current ownership, then churn part of the population. The final
      // window absorbs the division remainder; no churn after the last
      // harvest, so end-of-run state matches the last classification.
      ProfilePhase run_phase("runner.run");
      const uint32_t epochs = std::max<uint32_t>(1, spec.epochs);
      const Cycle window = spec.run_cycles / epochs;
      for (uint32_t epoch = 0; epoch < epochs; ++epoch) {
        const Cycle budget =
            epoch + 1 == epochs ? spec.run_cycles - window * (epochs - 1) : window;
        system.RunFor(budget);
        tenants.HarvestFlips();
        if (epoch + 1 < epochs) {
          tenants.Churn(epoch);
        }
      }
    }

    ProfilePhase report_phase("runner.report");
    // Tenant-level accounting replaces end-of-run AttributeFlips: flips
    // were classified per epoch against the ownership they occurred
    // under, which churn would otherwise misattribute.
    system.DrainCaches();
    const VerifyResult verify = system.kernel().VerifyAll();
    result.security.flip_events = system.TotalFlips();
    result.security.cross_domain_flips = tenants.escaped_flips();
    result.security.intra_domain_flips = tenants.intra_tenant_flips();
    result.security.corrupted_lines = verify.corrupted_lines;
    result.security.dos_lockups = verify.dos_lockups;
    result.perf = Summarize(system, spec.run_cycles);
    result.escaped_flips = tenants.escaped_flips();
    result.tenants_hit = tenants.tenants_hit();
    result.churn_events = tenants.churn_events();
    result.flips_escaped_per_tenant =
        spec.tenants == 0 ? 0.0
                          : static_cast<double>(tenants.escaped_flips()) /
                                static_cast<double>(spec.tenants);
    result.tenant_map_fingerprint = tenants.PageMapFingerprint();
    if (hooks != nullptr && hooks->on_tenants) {
      hooks->on_tenants(tenants);
    }
  } else {
    // --- Classic two-tenant path ------------------------------------------
    // Half-double needs tenants owning pairs of adjacent rows so a victim
    // sits at distance two from attacker rows.
    const uint64_t chunk = spec.attack == AttackKind::kHalfDouble
                               ? 2 * PagesPerRowGroup(system.mc().mapper())
                               : 0;
    auto tenants = SetupTenants(system, spec.tenants, spec.pages_per_tenant, chunk);
    const DomainId attacker = tenants[0];
    const DomainId victim = tenants.size() > 1 ? tenants[1] : tenants[0];
    system.InstallDefense(MakeDefense(spec.defense, spec.system.dram));
    InstallHwMitigation(system, spec.hw);

    // Attack plan: prefer the cross-domain sandwich; fall back to hammering
    // the attacker's own rows when isolation denies adjacency.
    PlanAndInstallAttack(system, spec, attacker, victim, &result);

    if (spec.benign_corunner && system.core_count() > 1) {
      system.AssignCore(1, victim,
                        MakeWorkload("random", victim, AddressSpace::BaseFor(victim),
                                     spec.pages_per_tenant * kPageBytes,
                                     ~0ull >> 1, 99));
    }

    if (hooks != nullptr && hooks->on_start) {
      hooks->on_start(system);
    }

    {
      ProfilePhase run_phase("runner.run");
      system.RunFor(spec.run_cycles);
    }

    ProfilePhase report_phase("runner.report");
    result.security = Assess(system);
    result.perf = Summarize(system, spec.run_cycles);
  }

  if (system.defense() != nullptr) {
    result.defense_interrupts = system.defense()->stats().Get("defense.interrupts") +
                                system.defense()->stats().Get("defense.detections");
  }
  result.page_moves = system.kernel().page_moves();
  result.throttle_stalls = system.mc().stats().Get("mc.throttle_stalls");
  result.mitigation_refreshes = system.mc().stats().Get("mc.mitigation_refreshes");

  if (telemetry != nullptr) {
    telemetry->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    TraceCounts counts;
    if (telemetry->trace != nullptr) {
      counts.trace_events = telemetry->trace->events_emitted();
      counts.trace_dropped = telemetry->trace->events_dropped();
    }
    counts.samples_taken = system.sampler().samples_taken();
    telemetry->report = BuildRunReport(telemetry->label, ScenarioSpecToJson(spec),
                                       ScenarioResultToJson(result), system.CollectStats(),
                                       &system.sampler(), telemetry->wall_seconds, counts);
  }
  if (hooks != nullptr && hooks->on_finish) {
    hooks->on_finish(system);
  }
  if (Profiler::Global().enabled()) [[unlikely]] {
    // Cold read of an interned counter, once per scenario.
    Profiler& profiler = Profiler::Global();
    profiler.AddCounter("mc.wake_batches", system.mc().stats().Get("mc.wake_batches"));
    profiler.AddCounter("runner.scenarios", 1);
    profiler.AddCounter("runner.simulated_cycles", spec.run_cycles);
  }
  return result;
}

void FlushRunnerTelemetry() {
  const RunnerTelemetryOptions& options = RunnerTelemetry();
  RunnerTelemetryState& state = TelemetryState();
  ProfilePhase flush_phase("telemetry.flush");
  if (!options.trace_out.empty()) {
    std::string error;
    WriteTraceOutput(options.trace_out, *state.sink, &error);
  }
  if (!options.metrics_out.empty()) {
    // MakeMetricsDocument consumes its input; hand it a copy so later
    // batches can re-flush the full accumulated list.
    JsonValue doc = MakeMetricsDocument(state.reports);
    Profiler::Global().MaybeAttachTo(doc);
    std::string error;
    WriteTelemetryDocument(options.metrics_out, doc, &error);
  }
}

std::vector<ScenarioResult> RunScenarios(const std::vector<ScenarioSpec>& specs,
                                         unsigned threads) {
  std::vector<ScenarioResult> results(specs.size());
  const RunnerTelemetryOptions& options = RunnerTelemetry();
  const bool telemetry_on = !options.trace_out.empty() || !options.metrics_out.empty();
  // A single scenario never pays thread-count resolution or pool setup.
  const unsigned workers = specs.size() <= 1 ? 1u : ResolveThreadCount(threads);
  if (!telemetry_on) {
    ParallelFor(specs.size(), workers,
                [&](uint64_t i) { results[i] = RunScenario(specs[i]); });
    return results;
  }

  // Buffers are created serially in spec order before the fan-out, so the
  // merged trace and the report order are identical for any worker count.
  RunnerTelemetryState& state = TelemetryState();
  std::vector<ScenarioTelemetry> telemetry(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    telemetry[i].label = "scenario" + std::to_string(state.scenarios_started + i) + "." +
                         ToString(specs[i].defense) + "." + ToString(specs[i].attack);
    if (!options.trace_out.empty()) {
      telemetry[i].trace = state.sink->CreateBuffer(telemetry[i].label);
    }
    telemetry[i].sample_every = options.sample_every;
  }
  state.scenarios_started += specs.size();
  ParallelFor(specs.size(), workers,
              [&](uint64_t i) { results[i] = RunScenario(specs[i], &telemetry[i]); });
  for (ScenarioTelemetry& scenario : telemetry) {
    state.reports.push_back(std::move(scenario.report));
  }
  FlushRunnerTelemetry();
  return results;
}

void AddThreadsFlag(ArgParser& parser) {
  parser.Option("threads", "N",
                "worker threads for scenario fan-out (0 = auto: HT_THREADS, then the "
                "hardware concurrency)",
                "0");
}

unsigned ThreadsFlag(const ArgParser& parser) {
  return parser.GetNumber<unsigned>("threads");
}

void AddRunnerFlags(ArgParser& parser) {
  AddThreadsFlag(parser);
  parser.Option("trace-out", "PATH",
                "write an event trace: Chrome trace_event JSON, or compact "
                "hammertime.bin.v1 when PATH ends in .htb");
  parser.Option("metrics-out", "PATH",
                "write a hammertime.metrics.v1 run report (binary when PATH ends in .htb)");
  parser.Option("sample-every", "N",
                "stat-sampler period in cycles (default 16384 when --metrics-out is set)");
  parser.Flag("profile",
              "self-profile the harness (phase timers, pool gauges) into the metrics "
              "report's profile section; also honored via HT_PROFILE=1");
}

unsigned ApplyRunnerFlags(const ArgParser& parser) {
  RunnerTelemetryOptions& options = RunnerTelemetry();
  options.trace_out = parser.Get("trace-out");
  options.metrics_out = parser.Get("metrics-out");
  options.sample_every = parser.GetUint("sample-every");
  if (!options.metrics_out.empty() && options.sample_every == 0) {
    options.sample_every = kDefaultSampleEvery;
  }
  const char* env_profile = std::getenv("HT_PROFILE");
  if (parser.GetBool("profile") ||
      (env_profile != nullptr && *env_profile != '\0' && *env_profile != '0')) {
    Profiler::Global().Enable();
  }
  return ThreadsFlag(parser);
}

}  // namespace ht
