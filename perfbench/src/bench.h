// Shared plumbing of the benchmark binary: options, the metric sheet,
// spans for the traced run, and the interface every workload implements.
//
// A workload is set up once (inputs, captures), then its round — a fixed
// list of operations on the program's public API — repeats until the run
// time is spent. End-to-end metrics come from untraced runs; with
// --trace 1 the same rounds run with spans around each public call, and
// after the timed region the workload drives the layers that only run
// inside the event loop directly (layers.h).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;    // scratch files (pcaps) for this process
};

// One named value with its unit. The per-layer sheet is fixed (every
// traced run prints every entry); entries a workload leaves alone stay 0,
// meaning the layer does no work in that workload's timed region.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricSheet = std::map<std::string, Metric>;

// Per-layer metric names and units, in one place (README.md maps each to
// the end-to-end metric it should move).
MetricSheet empty_layer_sheet();

// Span accumulator for the traced run: total nanoseconds and item count
// per name. Inactive (every call a no-op branch) in untraced runs.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  bool on() const { return on_; }
  void add(const std::string& name, int64_t ns, int64_t items = 1) {
    if (!on_) return;
    Acc& a = acc_[name];
    a.ns += ns;
    a.items += items;
  }
  int64_t ns(const std::string& name) const {
    auto it = acc_.find(name);
    return it == acc_.end() ? 0 : it->second.ns;
  }
  int64_t items(const std::string& name) const {
    auto it = acc_.find(name);
    return it == acc_.end() ? 0 : it->second.items;
  }
  // Mean nanoseconds per item (0 when nothing was recorded).
  double ns_per_item(const std::string& name) const {
    int64_t n = items(name);
    return n > 0 ? static_cast<double>(ns(name)) / static_cast<double>(n)
                 : 0.0;
  }

 private:
  struct Acc {
    int64_t ns = 0;
    int64_t items = 0;
  };
  bool on_;
  std::map<std::string, Acc> acc_;
};

// RAII span: times its scope into `spans` under `name` (no clock read
// when tracing is off).
class Span {
 public:
  Span(Spans& spans, const char* name, int64_t items = 1)
      : spans_(spans), name_(name), items_(items),
        start_(spans.on() ? now_ns() : 0) {}
  ~Span() {
    if (spans_.on()) spans_.add(name_, now_ns() - start_, items_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
  const char* name_;
  int64_t items_;
  int64_t start_;
};

// What one round did: packets handled (link deliveries for simulations,
// packets ingested for the analyzer), operations attempted and failed,
// and the failures of the output checks of the operations that did not
// fail (empty == every output correct). An operation fails when the
// program throws, or when its output shows a known program fault on
// inputs that do not depend on the seed (one line each in known_faults).
struct RoundResult {
  int64_t packets = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> known_faults;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything before the timed region: input generation, captures.
  virtual void setup() = 0;
  // One round of the fixed operation list, with its correctness checks.
  virtual RoundResult round() = 0;
  // Traced run only, after the timed region: fill the per-layer sheet
  // from the spans and counts recorded during the rounds and from direct
  // drives of the in-loop layers.
  virtual void fill_layers(MetricSheet& sheet) = 0;
};

std::unique_ptr<Workload> make_paper_calls(const Options& opts, Spans& spans);
std::unique_ptr<Workload> make_city_conference(const Options& opts,
                                               Spans& spans);
std::unique_ptr<Workload> make_stream_churn(const Options& opts, Spans& spans);

void set_metric(MetricSheet& sheet, const std::string& name, double value);

}  // namespace perfbench
