// perfbench: one workload, one process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 is the timed run: reps until S seconds of campaign time have
// passed (at least kMinReps), reporting the fastest rep's rate and CPU
// time and the median set-up time. --trace 1 is the traced run: one rep exactly
// as timed, then the instrumented passes of ledger.cc. Either way the last
// stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a provenance line and human-readable detail.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "perfbench.h"

namespace pb {
namespace {

constexpr int kMinReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Where and how these numbers were made. Results whose provenance differs
// are not comparable (perfbench/compare.py refuses them).
std::string Provenance(const Args& args) {
  std::ostringstream out;
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"trace\": " << args.trace << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"threads\": " << kThreads << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << PERFBENCH_COMPILER << "\"}";
  return out.str();
}

Rep TimedRep(Workload& workload) {
  workload.PrepareRep();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  Rep rep = workload.Run();
  rep.wall_s = SecondsSince(start);
  rep.cpu_s = ProcessCpuSeconds() - cpu0;
  return rep;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR]\n";
    return 2;
  }
  // Size the simulator's shared worker pool to the benchmark's thread
  // count, so the same two threads run every rep (a larger pool hands jobs
  // to varying helpers, each with its own malloc arena, and peak RSS then
  // depends on which helpers happened to run).
  setenv("HT_THREADS", std::to_string(kThreads).c_str(), 1);
  const std::string workdir =
      args.workdir + "/" + args.workload + "-" + std::to_string(getpid());
  std::filesystem::create_directories(workdir);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed, workdir);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::cout << "perfbench provenance " << Provenance(args) << "\n";

  const uint64_t cells = workload->cells().size();
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  bool traffic_ok = false;
  std::string traffic;
  Metrics metrics;
  const auto absorb = [&](const Rep& rep) {
    attempted += cells;
    failed += std::min<uint64_t>(rep.failed, cells);
    for (const std::string& error : rep.errors) {
      if (errors.size() < 20) {
        errors.push_back(error);
      }
    }
  };

  if (args.trace == 0) {
    // Every rep is timed; the first is also the reference the others must
    // repeat byte for byte.
    std::optional<Rep> reference;
    std::vector<double> rate, cpu, setup;
    double measured = 0.0;
    while (static_cast<int>(rate.size()) < kMinReps || measured < args.seconds) {
      Rep rep = TimedRep(*workload);
      workload->Check(rep, reference.has_value() ? &*reference : nullptr);
      absorb(rep);
      measured += rep.wall_s;
      rate.push_back(static_cast<double>(cells) / rep.wall_s);
      cpu.push_back(rep.cpu_s);
      setup.push_back(rep.setup_s);
      std::cout << "rep " << rate.size() << ": wall_s=" << Number(rep.wall_s)
                << " cpu_s=" << Number(rep.cpu_s) << " setup_s=" << Number(rep.setup_s)
                << " failed=" << rep.failed << "\n";
      if (!reference.has_value()) {
        traffic_ok = workload->TrafficCheck(rep, &traffic);
        reference = std::move(rep);
      }
    }
    // Interference from other tenants of the host only ever adds time. On
    // the 4-CPU host it came in episodes of seconds to tens of seconds that
    // slowed a rep by up to half, so the fastest rep (a cold first rep never
    // wins) is the steadiest estimate of the campaign's own cost. Set-up
    // time, whose bound is the loosest, is the median.
    metrics["cells_per_s"] = Metric{*std::max_element(rate.begin(), rate.end()), "cells/s"};
    metrics["cpu_s"] = Metric{*std::min_element(cpu.begin(), cpu.end()), "s"};
    metrics["setup_s"] = Metric{Median(setup), "s"};
    metrics["peak_rss_mb"] = Metric{PeakRssMb(), "MB"};
    metrics["cell_pass_rate"] = Metric{
        1.0 - static_cast<double>(failed) / static_cast<double>(attempted), "frac"};
  } else {
    Rep untraced = TimedRep(*workload);
    workload->Check(untraced, nullptr);
    traffic_ok = workload->TrafficCheck(untraced, &traffic);
    Rep traced_check;
    TraceLayers(*workload, untraced, &metrics, &traced_check);
    untraced.failed += traced_check.failed;
    untraced.errors.insert(untraced.errors.end(), traced_check.errors.begin(),
                           traced_check.errors.end());
    absorb(untraced);
    std::string not_applicable;
    for (const auto& [name, unit] : LayerMetricSpecs()) {
      const Metric& metric = metrics[name];
      std::cout << "layer " << name << " = "
                << (metric.applicable ? Number(metric.value) + " " + unit : "n/a") << "\n";
      if (!metric.applicable) {
        not_applicable += (not_applicable.empty() ? "" : " ") + name;
      }
    }
    std::cout << "perfbench not-applicable (reported as 0): " << not_applicable << "\n";
    traffic += ", mc.sync_barriers = " + Number(metrics["mc.sync_barriers"].value);
  }

  std::cout << "traffic check " << (traffic_ok ? "ok: " : "FAILED: ") << traffic << "\n";
  for (const std::string& error : errors) {
    std::cerr << "perfbench: " << error << "\n";
  }
  std::filesystem::remove_all(workdir);

  const bool correct = failed == 0 && errors.empty() && traffic_ok;
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << Number(metric.applicable ? metric.value : 0.0) << ", \"unit\": \""
              << metric.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) { return pb::Main(argc, argv); }
