// perfbench: runs one named workload for a fixed time and prints one JSON
// line of results (see README.md).
//
//   perfbench --workload <paper_calls|city_conference|stream_churn>
//             --seed N --seconds S --trace <0|1> --out-dir DIR
//             [--start-ns NS]
//
// --out-dir holds this process's scratch files (pcaps); the caller
// names a fresh one per run and removes it afterwards.
// --start-ns is the CLOCK_MONOTONIC time the launcher took just before
// starting this process, so setup_s covers exec and loading too; without
// it setup_s starts at main().
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

void set_metric(MetricSheet& sheet, const std::string& name, double value) {
  auto it = sheet.find(name);
  if (it == sheet.end()) {
    std::cerr << "perfbench: unknown per-layer metric " << name << "\n";
    std::abort();
  }
  it->second.value = value;
}

namespace {

// Process CPU time (user + system), seconds.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Binds the calling thread (and the threads it starts later) to `cpu`.
void pin_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_json(bool correct, int64_t attempted, int64_t failed,
                const MetricSheet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage() {
  std::cerr << "usage: perfbench --workload <paper_calls|city_conference|"
               "stream_churn> --seed N --seconds S --trace <0|1> "
               "--out-dir DIR [--start-ns NS]\n";
  return 2;
}

int run(int argc, char** argv) {
  int64_t start_ns = now_ns();
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") opts.workload = v;
    else if (k == "--seed") opts.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") opts.seconds = std::atof(v);
    else if (k == "--trace") opts.trace = std::atoi(v) != 0;
    else if (k == "--start-ns") start_ns = std::strtoll(v, nullptr, 10);
    else if (k == "--out-dir") opts.out_dir = v;
    else return usage();
  }
  if (opts.workload.empty() || !(opts.seconds > 0.0) || opts.out_dir.empty()) {
    return usage();
  }
  std::filesystem::create_directories(opts.out_dir);
  // Keep freed memory in the process's heap instead of handing it back to
  // the kernel (no trimming; blocks up to 32 MB from the heap, not from
  // mmap): after the first round, a round reuses the heap the round before
  // it freed. Faulting in fresh zeroed pages instead cost a city_conference
  // round over 2 s of system time for its multi-GB working set, and that
  // time swings with the host's memory traffic.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

  Spans spans(opts.trace);
  std::unique_ptr<Workload> w;
  if (opts.workload == "paper_calls") w = make_paper_calls(opts, spans);
  else if (opts.workload == "city_conference") w = make_city_conference(opts, spans);
  else if (opts.workload == "stream_churn") w = make_stream_churn(opts, spans);
  else return usage();

  w->setup();
  int64_t timed_start = now_ns();
  double setup_s = static_cast<double>(timed_start - start_ns) * 1e-9;

  // Whole rounds until the run time is spent. A round that would end past
  // the run time, going by the last round's length, is not started. Each
  // round runs on the next allowed CPU in turn (every workload runs on one
  // thread; see README.md): on a shared host the vCPUs run at different
  // speeds that change by the minute, so a run left on one vCPU measures
  // that vCPU. The end-to-end rates are those of the best round, the
  // fastest wall time and the least CPU: a neighbour's load or a slow vCPU
  // only ever lengthens a round, so the best of many rounds is the
  // estimate such noise moves least, and the first round's cold caches and
  // heap faults drop out by themselves.
  std::vector<int> cpus = allowed_cpus();
  double best_pps = 0.0, best_cpu = std::numeric_limits<double>::infinity();
  int64_t rounds = 0, attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::set<std::string> known_faults;  // the same every round
  while (true) {
    if (!cpus.empty()) {
      pin_to_cpu(cpus[static_cast<size_t>(rounds) % cpus.size()]);
    }
    double c0 = process_cpu_seconds();
    int64_t t0 = now_ns();
    RoundResult r = w->round();
    int64_t t1 = now_ns();
    double c1 = process_cpu_seconds();
    double wall = static_cast<double>(t1 - t0) * 1e-9;
    ++rounds;
    best_pps = std::max(best_pps, static_cast<double>(r.packets) / wall);
    best_cpu = std::min(best_cpu, c1 - c0);
    std::cerr << "round " << rounds << ": " << wall << " s, " << r.packets
              << " packets, " << (c1 - c0) << " cpu s\n";
    attempted += r.attempted;
    failed += r.failed;
    for (std::string& f : r.check_failures) failures.push_back(std::move(f));
    known_faults.insert(r.known_faults.begin(), r.known_faults.end());
    if (static_cast<double>(t1 - timed_start + (t1 - t0)) * 1e-9 >
        opts.seconds) {
      break;
    }
  }
  double timed_s = static_cast<double>(now_ns() - timed_start) * 1e-9;

  MetricSheet e2e;
  e2e["pkts_per_s"] = {best_pps, "packets/s"};
  e2e["cpu_s"] = {best_cpu, "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  e2e["setup_s"] = {setup_s, "s"};

  for (const std::string& f : known_faults) {
    std::cerr << "KNOWN FAULT (counted in failed): " << f << "\n";
  }
  for (const std::string& f : failures) std::cerr << "CHECK FAILED: " << f << "\n";
  std::cerr << "perfbench " << opts.workload << " seed " << opts.seed
            << " trace " << opts.trace << ": " << rounds << " rounds in "
            << timed_s << " s";
  for (const auto& [name, m] : e2e) {
    std::cerr << ", " << name << " " << m.value << " " << m.unit;
  }
  std::cerr << "\n";

  MetricSheet out = e2e;
  if (opts.trace) {
    out = empty_layer_sheet();
    w->fill_layers(out);
  }
  print_json(failures.empty(), attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
