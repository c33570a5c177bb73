// city_conference: one 200-party webex conference across 4 regions in
// gallery mode, with late joiners and early leavers, on the sharded
// engine. One round is one run_conference call of 2 simulated seconds.
#include <exception>

#include "bench.h"
#include "checks.h"
#include "core/perf.h"
#include "harness/sweep.h"
#include "layers.h"

namespace perfbench {
namespace {

using namespace vca;

// Worker threads of the sharded engine. The partition (and so every
// result) does not depend on it; one thread keeps a round on the one CPU
// the benchmark gives it (main.cc), where several would wait at every
// barrier for whichever vCPU a neighbour's load slows.
constexpr int kShardThreads = 1;

class CityConference : public Workload {
 public:
  CityConference(const Options& opts, Spans& spans)
      : opts_(opts), spans_(spans) {}

  void setup() override {
    cfg_.profile = "webex";
    cfg_.participants = 200;
    cfg_.regions = 4;
    cfg_.mode = ViewMode::kGallery;
    cfg_.seed = opts_.seed;
    cfg_.duration = Duration::seconds(2);
    cfg_.measure_from = Duration::millis(1500);
    cfg_.late_joiners = 12;
    cfg_.early_leavers = 12;
    cfg_.churn_start = Duration::millis(500);
    cfg_.churn_step = Duration::millis(50);
    cfg_.shards = kShardThreads;
    // The traced run also captures the observed client's downlink: the
    // recorded packets the direct drives replay.
    cfg_.capture_traces = spans_.on();
  }

  RoundResult round() override {
    RoundResult rr;
    rr.attempted = 1;
    uint64_t link0 = perf::link_packets_total();
    uint64_t events0 = sim_events_total();
    uint64_t handoffs0 = total_handoffs();
    uint64_t violations0 = invariant_violations_total();
    try {
      int64_t t0 = now_ns();
      ConferenceResult r = run_conference(cfg_);
      spans_.add("harness.sim_s.conference", now_ns() - t0);
      check_conference(cfg_, r, &rr.check_failures);
      check_invariants("run_conference", violations0,
                       invariant_violations_total(), &rr.check_failures);
      if (spans_.on()) {
        ++rounds_;
        events_ = sim_events_total() - events0;
        handoffs_ = total_handoffs() - handoffs0;
        last_ = std::move(r);
      }
    } catch (const std::exception& e) {
      rr.failed = 1;
      rr.check_failures.push_back(std::string("run_conference threw: ") +
                                  e.what());
    }
    rr.packets = static_cast<int64_t>(perf::link_packets_total() - link0);
    link_pkts_ = rr.packets;
    return rr;
  }

  void fill_layers(MetricSheet& sheet) override {
    if (rounds_ == 0) return;
    double sim_s =
        static_cast<double>(spans_.ns("harness.sim_s.conference")) * 1e-9;
    set_metric(sheet, "harness.sims", 1);
    set_metric(sheet, "harness.sim_s.conference",
               sim_s / static_cast<double>(rounds_));
    set_metric(sheet, "core.events", static_cast<double>(events_));
    set_metric(sheet, "core.events_per_s",
               static_cast<double>(events_) * static_cast<double>(rounds_) /
                   sim_s);
    uint64_t peak_shard = 0;
    for (int s = 0; s < perf::shard_slots(); ++s) {
      peak_shard = std::max(peak_shard, perf::shard_peak_heap(s));
    }
    set_metric(sheet, "core.peak_pending", static_cast<double>(peak_shard));
    set_metric(sheet, "net.link_pkts", static_cast<double>(link_pkts_));
    set_metric(sheet, "net.shard_handoffs", static_cast<double>(handoffs_));
    int peak_subs = 0, relays = 0;
    for (const ConferenceRegionStats& rs : last_.regions) {
      peak_subs = std::max(peak_subs, rs.peak_subscriptions);
      relays += rs.relay_out_streams;
    }
    set_metric(sheet, "vca.forwarded_pkts",
               static_cast<double>(last_.total_forwarded_packets));
    set_metric(sheet, "vca.peak_subscriptions", peak_subs);
    set_metric(sheet, "vca.relay_streams", relays);
    set_metric(sheet, "vca.churn_events",
               cfg_.late_joiners + cfg_.early_leavers);
    set_metric(sheet, "trace.records",
               static_cast<double>(last_.c1_down_records.size()));

    const auto& recs = last_.c1_down_records;
    drive_scheduler(peak_shard, recs, sheet);
    LinkShape shape;
    shape.rate = cfg_.client_down;
    shape.queue_bytes = queue_bytes_for(cfg_.client_down);
    drive_link(recs, shape, cfg_.seed, sheet);
    drive_rtp_cc(recs, cfg_.profile, sheet);
    // A minute of frames at the members' recorded mean send rate.
    drive_encoder(cfg_.profile, DataRate::mbps_d(last_.mean_client_up_mbps),
                  Duration::seconds(60), cfg_.seed, sheet);
  }

 private:
  static uint64_t total_handoffs() {
    uint64_t n = 0;
    for (int s = 0; s < perf::shard_slots(); ++s) n += perf::shard_handoffs(s);
    return n;
  }

  Options opts_;
  Spans& spans_;
  ConferenceConfig cfg_;
  int64_t rounds_ = 0;
  uint64_t events_ = 0;
  uint64_t handoffs_ = 0;
  int64_t link_pkts_ = 0;
  ConferenceResult last_;
};

}  // namespace

std::unique_ptr<Workload> make_city_conference(const Options& opts,
                                               Spans& spans) {
  return std::make_unique<CityConference>(opts, spans);
}

}  // namespace perfbench
