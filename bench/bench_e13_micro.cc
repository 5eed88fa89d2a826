// E13 — google-benchmark microbenchmarks of the simulator's hot paths,
// plus a whole-system throughput report (BENCH_throughput.json). The
// microbenches guard against regressions that would make the experiment
// suite impractically slow; they do not correspond to a paper figure.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "cpu/cache.h"
#include "dram/device.h"
#include "mc/addrmap.h"
#include "mc/controller.h"
#include "mc/mitigations.h"
#include "sim/scenario.h"

namespace ht {
namespace {

void BM_AddressMap(benchmark::State& state) {
  const auto scheme = static_cast<InterleaveScheme>(state.range(0));
  AddressMapper mapper(DramConfig::SimDefault().org, scheme);
  uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.MapLine(line));
    line = (line + 97) % mapper.total_lines();
  }
}
BENCHMARK(BM_AddressMap)->DenseRange(0, 3)->Name("AddressMapper/MapLine");

void BM_DisturbanceOnActivate(benchmark::State& state) {
  const DramConfig config = DramConfig::SimDefault();
  DisturbanceParams params = config.disturbance;
  params.blast_radius = static_cast<uint32_t>(state.range(0));
  BankDisturbance bank(config.org, params);
  std::vector<DisturbanceVictim> victims;
  uint32_t row = 1;
  for (auto _ : state) {
    bank.OnActivate(row, victims);
    victims.clear();
    row = (row + 3) % config.org.rows_per_bank();
  }
}
BENCHMARK(BM_DisturbanceOnActivate)->Arg(1)->Arg(2)->Arg(4)->Name("Disturbance/OnActivate");

void BM_TimingCheckAndRecord(benchmark::State& state) {
  const DramConfig config = DramConfig::SimDefault();
  TimingChecker checker(config.org, config.timing, true);
  Cycle now = 0;
  uint32_t bank = 0;
  uint32_t row = 0;
  for (auto _ : state) {
    const DdrCommand act = DdrCommand::Act(0, bank, row);
    now = std::max(now + 1, checker.EarliestCycle(act));
    checker.Record(act, now);
    const DdrCommand pre = DdrCommand::Pre(0, bank);
    now = std::max(now + 1, checker.EarliestCycle(pre));
    checker.Record(pre, now);
    bank = (bank + 1) % config.org.banks;
    row = (row + 7) % config.org.rows_per_bank();
  }
}
BENCHMARK(BM_TimingCheckAndRecord)->Name("Timing/ActPrePair");

void BM_CacheLookup(benchmark::State& state) {
  Cache cache(CacheConfig{});
  for (PhysAddr addr = 0; addr < 4096 * kLineBytes; addr += kLineBytes) {
    cache.Fill(addr, addr, false);
  }
  PhysAddr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(addr));
    addr = (addr + 193 * kLineBytes) % (8192 * kLineBytes);
  }
}
BENCHMARK(BM_CacheLookup)->Name("Cache/Lookup");

void BM_GrapheneOnActivate(benchmark::State& state) {
  const DramConfig config = DramConfig::SimDefault();
  GrapheneConfig graphene_config;
  graphene_config.table_entries = static_cast<uint32_t>(state.range(0));
  GrapheneMitigation graphene(config.org, config.disturbance, graphene_config);
  std::vector<NeighborRefreshRequest> out;
  uint32_t row = 0;
  Cycle now = 0;
  for (auto _ : state) {
    graphene.OnActivate(0, 0, row, ++now, out);
    out.clear();
    row = (row + 11) % 997;
  }
}
BENCHMARK(BM_GrapheneOnActivate)->Arg(64)->Arg(256)->Name("Graphene/OnActivate");

void BM_BlockHammerGate(benchmark::State& state) {
  const DramConfig config = DramConfig::SimDefault();
  BlockHammerMitigation blockhammer(config.org, config.retention, config.disturbance,
                                    BlockHammerConfig{});
  uint32_t row = 0;
  Cycle now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(blockhammer.ActAllowedAt(0, 0, row, ++now));
    row = (row + 5) % 1024;
  }
}
BENCHMARK(BM_BlockHammerGate)->Name("BlockHammer/ActAllowedAt");

void BM_ControllerTick(benchmark::State& state) {
  MemoryController mc(DramConfig::SimDefault(), McConfig{});
  Rng rng(1);
  Cycle now = 0;
  uint64_t id = 0;
  for (auto _ : state) {
    if (mc.QueuedRequests() < 16) {
      MemRequest request;
      request.id = ++id;
      request.op = MemOp::kRead;
      request.addr = rng.NextBelow(1u << 20) * kLineBytes;
      mc.Enqueue(request, now);
    }
    mc.Tick(now++);
  }
}
BENCHMARK(BM_ControllerTick)->Name("Controller/TickUnderLoad");

// --- Whole-system simulation throughput -----------------------------------
//
// Measures simulated cycles per wall-clock second on an idle-heavy system
// (no instruction streams; only the refresh manager is periodically
// active) with idle skipping on and off, and writes the numbers to
// BENCH_throughput.json. This is the scenario the idle-skipping fast
// path exists for, and the report is what CI trend lines consume.

struct ThroughputSample {
  double seconds = 0.0;
  double cycles_per_sec = 0.0;
};

// Keeps the faster run in `best`; a default (zero-second) `best` takes
// the first sample.
void KeepFaster(ThroughputSample& best, const ThroughputSample& sample) {
  if (best.seconds == 0.0 || sample.seconds < best.seconds) {
    best = sample;
  }
}

// Every series in both reports is the fastest of kRounds runs, and each
// round runs every series once. The runs are short (under a millisecond to
// under a second), so one sample is mostly host noise. Other load only
// ever adds time, so the fastest run is the steadiest estimate of a run's
// own cost. Interference on a shared host comes in episodes of seconds, so
// the rounds interleave the series in time: an episode slows one round of
// every series rather than every run of one. This keeps the shares and
// ratios the trend gates compare stable.
constexpr int kRounds = 5;
// A skipping idle-heavy run lasts under a millisecond: take many per round.
constexpr int kSkipOnRunsPerRound = 16;

ThroughputSample MeasureIdleHeavy(bool skip_idle, Cycle cycles) {
  SystemConfig config;
  config.skip_idle = skip_idle;
  System system(config);
  const auto start = std::chrono::steady_clock::now();
  system.RunFor(cycles);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  ThroughputSample sample;
  sample.seconds = elapsed.count();
  sample.cycles_per_sec =
      sample.seconds > 0.0 ? static_cast<double>(cycles) / sample.seconds : 0.0;
  return sample;
}

void WriteThroughputReport() {
  const Cycle cycles = std::min<Cycle>(30000000, BenchSmokeCap());
  ThroughputSample off;
  ThroughputSample on;
  for (int round = 0; round < kRounds; ++round) {
    KeepFaster(off, MeasureIdleHeavy(false, cycles));
    for (int run = 0; run < kSkipOnRunsPerRound; ++run) {
      KeepFaster(on, MeasureIdleHeavy(true, cycles));
    }
  }
  const double speedup = off.cycles_per_sec > 0.0 ? on.cycles_per_sec / off.cycles_per_sec : 0.0;

  FILE* out = std::fopen("BENCH_throughput.json", "w");
  if (out == nullptr) {
    std::perror("BENCH_throughput.json");
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"scenario\": \"idle_heavy\",\n"
               "  \"simulated_cycles\": %llu,\n"
               "  \"skip_idle_off\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "  \"skip_idle_on\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "  \"speedup\": %.2f\n"
               "}\n",
               static_cast<unsigned long long>(cycles), off.seconds, off.cycles_per_sec,
               on.seconds, on.cycles_per_sec, speedup);
  std::fclose(out);
  std::printf("System/IdleHeavy: %llu cycles — skip off %.0f cyc/s, skip on %.0f cyc/s "
              "(%.1fx); wrote BENCH_throughput.json\n",
              static_cast<unsigned long long>(cycles), off.cycles_per_sec, on.cycles_per_sec,
              speedup);
}

// --- Busy-phase scheduling throughput ---------------------------------------
//
// The counterpart of the idle-heavy report: hammer-heavy load whose MC
// queues are almost never empty, so idle skipping alone cannot help.
// Measures simulated cycles per wall-clock second with the event-driven
// busy-phase scheduler (exact NextWake from the timing tables, memo-gated
// channel scans, interval-accounted core stalls) off and on, and writes
// BENCH_busy.json; every series is the fastest of kRounds runs. Command
// streams and stats are bit-identical between the two
// modes (tests/test_event_scheduling.cc holds that line), so this is a
// pure scheduling-overhead comparison. Two scenarios:
//
//  * mc_hammer_loop — the controller driven directly with a saturating
//    same-bank row-conflict stream, the clock advanced by NextWake (event)
//    or per-cycle (legacy). Isolates the busy-phase scheduler: every
//    skipped cycle is a dead rescan the legacy mode pays for.
//  * system_hammer — the whole-system version (hammer core + streaming
//    co-runner); cores and caches dilute the MC win, so this bounds the
//    end-to-end benefit the way E1 wall-clock does.

ThroughputSample MeasureMcHammerLoop(bool event_driven, Cycle cycles) {
  McConfig config;
  config.event_driven = event_driven;
  MemoryController mc(DramConfig::SimDefault(), config);

  // Three same-bank rows cycled at queue depth 2: no two queued requests
  // ever share a row, so every access is a row conflict forcing its own
  // PRE+ACT at tRC spacing — the classic hammer loop. The channel is
  // timing-blocked between commands while the queue stays full, which is
  // exactly the busy phase the event scheduler targets.
  const AddressMapper& mapper = mc.mapper();
  std::vector<PhysAddr> aggressors;
  uint32_t last_row = ~0u;
  for (PhysAddr addr = 0;
       aggressors.size() < 3 && addr < mapper.total_lines() * kLineBytes; addr += kLineBytes) {
    const DdrCoord coord = mapper.Map(addr);
    if (coord.channel == 0 && coord.rank == 0 && coord.bank == 0 && coord.row != last_row) {
      aggressors.push_back(addr);
      last_row = coord.row;
    }
  }

  uint64_t id = 0;
  size_t cursor = 0;
  const auto start = std::chrono::steady_clock::now();
  for (Cycle now = 0; now < cycles;) {
    while (mc.QueuedRequests() < 2) {
      MemRequest request;
      request.id = ++id;
      request.op = MemOp::kRead;
      request.addr = aggressors[cursor++ % aggressors.size()];
      if (!mc.Enqueue(request, now)) {
        break;
      }
    }
    mc.Tick(now);
    now = event_driven ? std::max(now + 1, mc.NextWake(now)) : now + 1;
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  ThroughputSample sample;
  sample.seconds = elapsed.count();
  sample.cycles_per_sec =
      sample.seconds > 0.0 ? static_cast<double>(cycles) / sample.seconds : 0.0;
  return sample;
}

ThroughputSample MeasureHammerHeavy(bool event_driven, Cycle cycles) {
  SystemConfig config;
  config.cores = 2;
  config.core.window = 2;  // Tight window: the cores lean on the MC.
  config.mc.event_driven = event_driven;
  config.core.event_driven = event_driven;
  System system(config);
  auto tenants = SetupTenants(system, 2, /*pages_each=*/512);
  auto plan = PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]);
  HammerConfig hammer;
  if (plan.has_value()) {
    hammer.aggressors = plan->aggressor_vas;
  }
  system.AssignCore(0, tenants[0], std::make_unique<HammerStream>(hammer));
  system.AssignCore(1, tenants[1],
                    MakeWorkload("stream", tenants[1], AddressSpace::BaseFor(tenants[1]),
                                 512 * kPageBytes, /*total_ops=*/~0ull >> 1, 8));
  const auto start = std::chrono::steady_clock::now();
  system.RunFor(cycles);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  ThroughputSample sample;
  sample.seconds = elapsed.count();
  sample.cycles_per_sec =
      sample.seconds > 0.0 ? static_cast<double>(cycles) / sample.seconds : 0.0;
  return sample;
}

void WriteBusyReport() {
  const Cycle mc_cycles = std::min<Cycle>(8000000, BenchSmokeCap());
  const Cycle sys_cycles = std::min<Cycle>(4000000, BenchSmokeCap());

  ThroughputSample mc_off;
  ThroughputSample mc_on;
  ThroughputSample sys_off;
  ThroughputSample sys_on;
  for (int round = 0; round < kRounds; ++round) {
    KeepFaster(mc_off, MeasureMcHammerLoop(false, mc_cycles));
    KeepFaster(mc_on, MeasureMcHammerLoop(true, mc_cycles));
    KeepFaster(sys_off, MeasureHammerHeavy(false, sys_cycles));
    KeepFaster(sys_on, MeasureHammerHeavy(true, sys_cycles));
  }
  const double mc_speedup =
      mc_off.cycles_per_sec > 0.0 ? mc_on.cycles_per_sec / mc_off.cycles_per_sec : 0.0;
  const double sys_speedup =
      sys_off.cycles_per_sec > 0.0 ? sys_on.cycles_per_sec / sys_off.cycles_per_sec : 0.0;

  FILE* out = std::fopen("BENCH_busy.json", "w");
  if (out == nullptr) {
    std::perror("BENCH_busy.json");
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"scenario\": \"mc_hammer_loop\",\n"
               "  \"simulated_cycles\": %llu,\n"
               "  \"event_driven_off\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "  \"event_driven_on\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "  \"speedup\": %.2f,\n"
               "  \"system_hammer\": {\n"
               "    \"simulated_cycles\": %llu,\n"
               "    \"event_driven_off\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "    \"event_driven_on\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "    \"speedup\": %.2f\n"
               "  }\n"
               "}\n",
               static_cast<unsigned long long>(mc_cycles), mc_off.seconds, mc_off.cycles_per_sec,
               mc_on.seconds, mc_on.cycles_per_sec, mc_speedup,
               static_cast<unsigned long long>(sys_cycles), sys_off.seconds,
               sys_off.cycles_per_sec, sys_on.seconds, sys_on.cycles_per_sec, sys_speedup);
  std::fclose(out);
  std::printf("MC/HammerLoop: %llu cycles — event off %.0f cyc/s, event on %.0f cyc/s (%.1fx)\n",
              static_cast<unsigned long long>(mc_cycles), mc_off.cycles_per_sec,
              mc_on.cycles_per_sec, mc_speedup);
  std::printf("System/HammerHeavy: %llu cycles — event off %.0f cyc/s, event on %.0f cyc/s "
              "(%.1fx)\n",
              static_cast<unsigned long long>(sys_cycles), sys_off.cycles_per_sec,
              sys_on.cycles_per_sec, sys_speedup);
  std::printf("wrote BENCH_busy.json\n");
}

}  // namespace
}  // namespace ht

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ht::WriteThroughputReport();
  ht::WriteBusyReport();
  return 0;
}
