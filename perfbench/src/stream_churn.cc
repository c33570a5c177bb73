// stream_churn: the StreamingAnalyzer at production defaults (32 MB cap,
// sketch promotion bar 8) over SynthChurn streams, followed by a replay
// of a conference downlink pcap captured during set-up, analyzed both by
// a streaming analyzer and offline.
//
// The churn is scaled by count, not by size: each round feeds kStreams
// independent default-shape streams (100k mice, 10k mid, 200 hot flows
// over 30 s; ~960k packets each) to a fresh analyzer apiece. Doubling the
// flows of one stream instead would saturate the 32k-wide count-min
// sketch and promote nearly every mouse, a different regime from the
// service's design point. The churn is generated into memory during
// set-up, so the timed rounds measure the analyzer, not the generator.
#include <algorithm>
#include <exception>
#include <stdexcept>

#include "bench.h"
#include "checks.h"
#include "core/perf.h"
#include "layers.h"
#include "streaming/analyzer.h"
#include "streaming/synth.h"

namespace perfbench {
namespace {

using namespace vca;

class StreamChurn : public Workload {
 public:
  StreamChurn(const Options& opts, Spans& spans) : opts_(opts), spans_(spans) {}

  void setup() override {
    // The vantage-point capture: C1's downlink in a 6-party, 2-region
    // webex conference (5 remote video tiles, one crossing the relay).
    ConferenceConfig conf;
    conf.profile = "webex";
    conf.participants = 6;
    conf.regions = 2;
    conf.seed = opts_.seed;
    conf.duration = Duration::seconds(60);
    conf.measure_from = Duration::seconds(20);
    conf.capture_traces = true;
    conf.pcap_path = opts_.out_dir + "/conference-c1-down.pcap";
    conf.shards = 1;
    ConferenceResult r = run_conference(conf);
    pcap_path_ = conf.pcap_path;
    pcap_records_ = static_cast<int64_t>(r.c1_down_records.size());
    truth_fps_ = truth_median_fps(r.c1_recv_seconds, Duration::zero());

    for (int i = 0; i < kStreams; ++i) {
      SynthChurnConfig cfg;  // the default shape
      cfg.seed = opts_.seed * kStreams + static_cast<uint64_t>(i);
      SynthChurn gen(cfg);
      std::vector<ParsedPacket>& input = inputs_.emplace_back();
      ParsedPacket p;
      while (gen.next(&p)) input.push_back(p);
    }
  }

  RoundResult round() override {
    RoundResult rr;
    // One churn ingest per stream, then the streaming and offline replays.
    rr.attempted = kStreams + 2;
    try {
      table_ = FlowTable::Stats{};
      windows_ = peak_live_ = allocs_ = 0;
      for (const std::vector<ParsedPacket>& input : inputs_) {
        ChurnOutcome c = ingest_churn(input);
        check_churn(c, &rr.check_failures);
        rr.packets += c.ingested_packets;
      }
      rr.packets += replay(&rr.check_failures);
    } catch (const std::exception& e) {
      rr.failed = rr.attempted;
      rr.check_failures.push_back(std::string("stream_churn threw: ") +
                                  e.what());
    }
    return rr;
  }

  void fill_layers(MetricSheet& sheet) override {
    set_metric(sheet, "streaming.ns_per_pkt",
               spans_.ns_per_item("streaming.ingest"));
    set_metric(sheet, "streaming.sketch_only_pkts",
               static_cast<double>(table_.sketch_only_packets));
    set_metric(sheet, "streaming.promoted",
               static_cast<double>(table_.promoted));
    set_metric(sheet, "streaming.evicted",
               static_cast<double>(table_.evicted_lru + table_.evicted_idle));
    set_metric(sheet, "streaming.windows", static_cast<double>(windows_));
    set_metric(sheet, "streaming.peak_live_mb",
               static_cast<double>(peak_live_) / (1024.0 * 1024.0));
    set_metric(sheet, "streaming.alloc_calls", static_cast<double>(allocs_));
    set_metric(sheet, "trace.records", static_cast<double>(pcap_records_));
    drive_pcap_read({pcap_path_}, sheet);
    bool ok = false;
    drive_analysis(read_pcap_file(pcap_path_, &ok), sheet);
  }

 private:
  ChurnOutcome ingest_churn(const std::vector<ParsedPacket>& input) {
    const SynthChurnConfig shape;
    ChurnOutcome c;
    c.generated_packets = static_cast<int64_t>(input.size());
    c.expected_hot_flows = shape.hot_flows;
    const uint32_t first_hot =
        static_cast<uint32_t>(shape.mice_flows + shape.mid_flows);

    StreamingConfig cfg;  // production defaults
    c.cap_bytes = static_cast<int64_t>(cfg.memory_cap_bytes);
    c.heap_tracked = perf::alloc_tracking_active();
    int64_t heap_base = perf::live_bytes();
    perf::reset_peak_live();
    uint64_t allocs0 = perf::alloc_calls();
    c.hot_fps.reserve(static_cast<size_t>(shape.hot_flows));

    int64_t windows = 0;
    {
      StreamingAnalyzer an(cfg);
      an.set_report_sink([&](const StreamReport& r) {
        ++c.final_reports;
        if ((r.key.src_ip & 0xffffffu) >= first_hot) {
          c.hot_fps.push_back(r.median_fps);
        }
      });
      an.set_window_sink([&](const WindowReport&) { ++windows; });
      {
        // Per packet, the final flush included.
        Span s(spans_, "streaming.ingest",
               static_cast<int64_t>(input.size()));
        for (const ParsedPacket& p : input) an.on_parsed(p);
        an.finish();
      }
      c.ingested_packets = an.stats().packets;
      const FlowTable::Stats& ts = an.table().stats();
      c.promoted = ts.promoted;
      table_.sketch_only_packets += ts.sketch_only_packets;
      table_.promoted += ts.promoted;
      table_.evicted_lru += ts.evicted_lru;
      table_.evicted_idle += ts.evicted_idle;
    }
    c.peak_live_bytes = perf::peak_live_bytes() - heap_base;
    peak_live_ = std::max(peak_live_, c.peak_live_bytes);
    allocs_ += static_cast<int64_t>(perf::alloc_calls() - allocs0);
    windows_ += windows;
    return c;
  }

  // Streaming (bounded) and offline analysis of the captured pcap;
  // returns the packets the streaming analyzer ingested.
  int64_t replay(Failures* out) {
    StreamingConfig cfg;
    // A curated capture: every flow matters, so admit on first sight, and
    // keep flows live to the end so one report per flow compares 1:1.
    cfg.promote_packets = 1;
    cfg.idle_timeout_ns = 3'600'000'000'000;
    StreamingAnalyzer an(cfg);
    if (!an.replay_pcap(pcap_path_)) {
      throw std::runtime_error("cannot replay " + pcap_path_);
    }
    an.finish();
    bool ok = false;
    TraceAnalysis offline = analyze_pcap_file(pcap_path_, 0.0, &ok);
    if (!ok) throw std::runtime_error("cannot analyze " + pcap_path_);
    if (an.stats().records_in != pcap_records_) {
      out->push_back("replay ingested " + std::to_string(an.stats().records_in) +
                     " records, capture holds " + std::to_string(pcap_records_));
    }
    check_replay(an.reports(), offline, truth_fps_, out);
    return an.stats().records_in;
  }

  Options opts_;
  Spans& spans_;
  static constexpr int kStreams = 2;
  std::vector<std::vector<ParsedPacket>> inputs_;
  std::string pcap_path_;
  int64_t pcap_records_ = 0;
  double truth_fps_ = 0.0;
  // Last round's counts, summed over its streams (identical every round).
  FlowTable::Stats table_;
  int64_t windows_ = 0;
  int64_t peak_live_ = 0;
  int64_t allocs_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_stream_churn(const Options& opts, Spans& spans) {
  return std::make_unique<StreamChurn>(opts, spans);
}

}  // namespace perfbench
