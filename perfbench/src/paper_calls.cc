// paper_calls: a fixed, representative slice of the paper's experiments
// (§3-§6) run as one Sweep of independent simulations per round.
//
//   * two-party calls, meet/teams/zoom: unconstrained (Table 2; C1's
//     downlink captured to pcap and inferred blind, §3.3), uplink and
//     downlink shaped to 0.5 Mbps (Figs 1-3), and impaired paths (loss,
//     latency, jitter on C1's access links);
//   * one transient uplink disruption (Figs 4-6);
//   * competition on a 0.5 Mbps shared bottleneck (Figs 8-14): VCA-vs-VCA
//     and VCA-vs-iPerf-down cells seeded from --seed, and every incumbent
//     against iPerf-up, Netflix and YouTube at one pinned seed (below);
//   * one 8-party gallery call (Fig 15).
//
// The pinned cells: a competitor that falls silent before the share
// window ends trips the RateMeter::mean_rate fault (checks.h,
// share_window_truncated), and whether it does depends on the seed.
// Seeded from --seed, these cells would fail on some runs and not on
// others; at kPinnedSeed every run computes the same calls, and at that
// seed zoom vs iPerf-up hits the fault every time. A cell whose share
// check fails with the fault's signature is counted in `failed`; any
// other check failure makes the round incorrect.
#include <exception>
#include <stdexcept>

#include "bench.h"
#include "checks.h"
#include "core/perf.h"
#include "harness/sweep.h"
#include "layers.h"

namespace perfbench {
namespace {

using namespace vca;

enum class Kind { kTwoParty, kDisruption, kCompetition, kMultiparty };

constexpr uint64_t kPinnedSeed = 1016;

// Sweep workers. Round time is the Sweep's makespan, so with several
// workers on a shared host a stall of any one vCPU stretches the round;
// one worker keeps the round on the one CPU the benchmark gives it
// (main.cc).
constexpr int kSweepWorkers = 1;

struct Job {
  Kind kind = Kind::kTwoParty;
  TwoPartyConfig two_party;
  bool table2 = false;  // unconstrained: Table 2 reference applies
  bool shaped = false;  // capacity-limited: utilization bound applies
  DisruptionConfig disruption;
  CompetitionConfig competition;
  MultipartyConfig multiparty;
};

struct JobOutput {
  bool threw = false;
  std::string error;
  TwoPartyResult two_party;
  DisruptionResult disruption;
  CompetitionResult competition;
  MultipartyResult multiparty;
  // Blind inference over the written pcap (captured calls only).
  double blind_fps = 0.0;
  int64_t pcap_records = 0;
  // Host time of the simulation, the pcap write and the pcap analysis,
  // measured on the worker (spans are merged on the main thread).
  int64_t sim_ns = 0;
  int64_t write_ns = 0;
  int64_t analyze_ns = 0;
};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kTwoParty: return "harness.sim_s.two_party";
    case Kind::kDisruption: return "harness.sim_s.disruption";
    case Kind::kCompetition: return "harness.sim_s.competition";
    case Kind::kMultiparty: return "harness.sim_s.multiparty";
  }
  return "";
}

class PaperCalls : public Workload {
 public:
  PaperCalls(const Options& opts, Spans& spans) : opts_(opts), spans_(spans) {}

  void setup() override {
    uint64_t next_seed = opts_.seed * 1000 + 1;
    const char* profiles[] = {"meet", "teams", "zoom"};
    auto two_party = [&](const char* profile) {
      Job j;
      j.two_party.profile = profile;
      j.two_party.seed = next_seed++;
      return j;
    };
    // Longest job first, so the Sweep's tail stays short.
    Job mp;
    mp.kind = Kind::kMultiparty;
    mp.multiparty.profile = "meet";
    mp.multiparty.participants = 8;
    mp.multiparty.seed = next_seed++;
    jobs_.push_back(mp);
    for (const char* p : profiles) {
      Job j = two_party(p);
      j.table2 = true;
      j.two_party.capture_traces = true;
      j.two_party.pcap_path = opts_.out_dir + "/" + p + "-c1-down.pcap";
      jobs_.push_back(j);
    }
    for (const char* p : profiles) {
      Job up = two_party(p);
      up.shaped = true;
      up.two_party.c1_up = DataRate::kbps(500);
      jobs_.push_back(up);
      Job down = two_party(p);
      down.shaped = true;
      down.two_party.c1_down = DataRate::kbps(500);
      jobs_.push_back(down);
    }
    Job loss = two_party("meet");
    loss.two_party.c1_loss = 0.02;
    jobs_.push_back(loss);
    Job latency = two_party("teams");
    latency.two_party.c1_extra_latency = Duration::millis(50);
    latency.two_party.c1_jitter = Duration::millis(10);
    jobs_.push_back(latency);
    Job jitter = two_party("zoom");
    jitter.two_party.c1_loss = 0.01;
    jitter.two_party.c1_jitter = Duration::millis(5);
    jobs_.push_back(jitter);

    Job dis;
    dis.kind = Kind::kDisruption;
    dis.disruption.profile = "meet";
    dis.disruption.seed = next_seed++;
    dis.disruption.total = Duration::seconds(180);
    jobs_.push_back(dis);

    struct Pair {
      const char* incumbent;
      CompetitorKind kind;
      const char* competitor;
    };
    const Pair pairs[] = {{"zoom", CompetitorKind::kVca, "meet"},
                          {"meet", CompetitorKind::kVca, "teams"},
                          {"teams", CompetitorKind::kVca, "zoom"},
                          {"meet", CompetitorKind::kIperfDown, ""},
                          {"teams", CompetitorKind::kIperfDown, ""},
                          {"zoom", CompetitorKind::kIperfDown, ""}};
    auto competition = [&](const char* incumbent, CompetitorKind kind,
                           uint64_t seed) {
      Job c;
      c.kind = Kind::kCompetition;
      c.competition.incumbent = incumbent;
      c.competition.competitor = kind;
      c.competition.link = DataRate::kbps(500);
      c.competition.seed = seed;
      return c;
    };
    for (const Pair& pr : pairs) {
      Job c = competition(pr.incumbent, pr.kind, next_seed++);
      if (pr.kind == CompetitorKind::kVca) {
        c.competition.competitor_profile = pr.competitor;
      }
      jobs_.push_back(c);
    }
    for (CompetitorKind kind : {CompetitorKind::kIperfUp,
                                CompetitorKind::kNetflix,
                                CompetitorKind::kYoutube}) {
      for (const char* p : profiles) {
        jobs_.push_back(competition(p, kind, kPinnedSeed));
      }
    }
  }

  RoundResult round() override {
    RoundResult rr;
    uint64_t link0 = perf::link_packets_total();
    uint64_t events0 = sim_events_total();
    uint64_t violations0 = invariant_violations_total();
    int64_t t0 = now_ns();
    std::vector<JobOutput> outs = Sweep::run(
        jobs_, [](const Job& j) { return run_job(j); }, kSweepWorkers);
    int64_t wall = now_ns() - t0;
    rr.packets = static_cast<int64_t>(perf::link_packets_total() - link0);
    rr.attempted = static_cast<int64_t>(jobs_.size());
    check_invariants("paper_calls round", violations0,
                     invariant_violations_total(), &rr.check_failures);

    int64_t busy = 0;
    for (size_t i = 0; i < jobs_.size(); ++i) {
      const Job& j = jobs_[i];
      const JobOutput& o = outs[i];
      busy += o.sim_ns + o.write_ns + o.analyze_ns;
      if (o.threw) {
        ++rr.failed;
        rr.check_failures.push_back("job " + std::to_string(i) + " threw: " +
                                    o.error);
        continue;
      }
      Failures f;
      check_job(j, o, &f);
      if (!f.empty() && j.kind == Kind::kCompetition &&
          share_window_truncated(j.competition, o.competition)) {
        ++rr.failed;
        rr.known_faults.push_back("RateMeter::mean_rate: " + f.front());
      } else {
        rr.check_failures.insert(rr.check_failures.end(), f.begin(), f.end());
      }
      if (spans_.on()) {
        spans_.add(kind_name(j.kind), o.sim_ns);
        if (o.pcap_records > 0) {
          spans_.add("trace.pcap_write", o.write_ns, o.pcap_records);
          spans_.add("trace.records", 0, o.pcap_records);
        }
      }
    }
    if (spans_.on()) {
      ++rounds_;
      events_ = sim_events_total() - events0;
      link_pkts_ = rr.packets;
      spans_.add("harness.sweep_idle", wall * kSweepWorkers - busy);
      last_ = std::move(outs);
    }
    return rr;
  }

  void fill_layers(MetricSheet& sheet) override {
    if (rounds_ == 0) return;
    double rounds = static_cast<double>(rounds_);
    int64_t sim_ns = 0;
    for (const char* k : {"harness.sim_s.two_party", "harness.sim_s.disruption",
                          "harness.sim_s.competition",
                          "harness.sim_s.multiparty"}) {
      set_metric(sheet, k, static_cast<double>(spans_.ns(k)) * 1e-9 / rounds);
      sim_ns += spans_.ns(k);
    }
    set_metric(sheet, "harness.sims", static_cast<double>(jobs_.size()));
    set_metric(sheet, "harness.sweep_idle_s",
               static_cast<double>(spans_.ns("harness.sweep_idle")) * 1e-9 /
                   rounds);
    set_metric(sheet, "core.events", static_cast<double>(events_));
    set_metric(sheet, "core.events_per_s",
               static_cast<double>(events_) * rounds /
                   (static_cast<double>(sim_ns) * 1e-9));
    set_metric(sheet, "core.peak_pending",
               static_cast<double>(perf::peak_heap_events()));
    set_metric(sheet, "net.link_pkts", static_cast<double>(link_pkts_));
    set_metric(sheet, "trace.records",
               static_cast<double>(spans_.items("trace.records")) / rounds);
    set_metric(sheet, "trace.pcap_write_ns_per_rec",
               spans_.ns_per_item("trace.pcap_write"));

    // Direct drives on the recorded inputs: the unconstrained meet call's
    // capture, the impaired calls' link settings, the competition link.
    const TwoPartyResult* meet = nullptr;
    std::vector<PacketRecord> all;
    std::vector<std::string> pcaps;
    for (size_t i = 0; i < jobs_.size(); ++i) {
      const Job& j = jobs_[i];
      if (j.kind != Kind::kTwoParty || !j.two_party.capture_traces) continue;
      const auto& recs = last_[i].two_party.c1_down_records;
      all.insert(all.end(), recs.begin(), recs.end());
      pcaps.push_back(j.two_party.pcap_path);
      if (j.two_party.profile == "meet") meet = &last_[i].two_party;
    }
    if (meet == nullptr) return;
    drive_scheduler(perf::peak_heap_events(), meet->c1_down_records, sheet);
    int64_t queue = 0, impair = 0;
    double link_ns = 0.0;
    int drives = 0;
    for (const Job& j : jobs_) {
      if (j.kind != Kind::kTwoParty) continue;
      const TwoPartyConfig& c = j.two_party;
      if (c.c1_loss == 0.0 && c.c1_jitter == Duration::zero() &&
          c.c1_down == DataRate::gbps(1)) {
        continue;
      }
      LinkShape shape;
      shape.rate = c.c1_down;
      shape.propagation = Duration::millis(2) + c.c1_extra_latency;
      shape.queue_bytes = queue_bytes_for(std::min(c.c1_up, c.c1_down));
      shape.loss = c.c1_loss;
      shape.jitter = c.c1_jitter;
      drive_link(meet->c1_down_records, shape, c.seed, sheet);
      queue += static_cast<int64_t>(sheet["net.queue_drops"].value);
      impair += static_cast<int64_t>(sheet["net.impair_drops"].value);
      link_ns += sheet["net.link_ns_per_pkt"].value;
      ++drives;
    }
    set_metric(sheet, "net.queue_drops", static_cast<double>(queue));
    set_metric(sheet, "net.impair_drops", static_cast<double>(impair));
    set_metric(sheet, "net.link_ns_per_pkt", drives > 0 ? link_ns / drives : 0);
    drive_rtp_cc(meet->c1_down_records, "meet", sheet);
    drive_encoder("meet", DataRate::mbps_d(meet->c1_up_mbps),
                  TwoPartyConfig{}.duration, opts_.seed, sheet);
    for (const Job& j : jobs_) {
      if (j.kind == Kind::kCompetition &&
          j.competition.competitor == CompetitorKind::kIperfDown) {
        drive_tcp(j.competition.link, j.competition.competitor_len, sheet);
        break;
      }
    }
    drive_analysis(all, sheet);
    drive_pcap_read(pcaps, sheet);
  }

 private:
  static JobOutput run_job(const Job& j) {
    JobOutput o;
    try {
      int64_t t0 = now_ns();
      switch (j.kind) {
        case Kind::kTwoParty: {
          // The runner's own pcap_path write is left off; the benchmark
          // writes the capture through the public writer so the write is
          // timed on its own.
          TwoPartyConfig cfg = j.two_party;
          cfg.pcap_path.clear();
          o.two_party = run_two_party(cfg);
          break;
        }
        case Kind::kDisruption:
          o.disruption = run_disruption(j.disruption);
          break;
        case Kind::kCompetition:
          o.competition = run_competition(j.competition);
          break;
        case Kind::kMultiparty:
          o.multiparty = run_multiparty(j.multiparty);
          break;
      }
      int64_t t1 = now_ns();
      o.sim_ns = t1 - t0;
      if (j.kind == Kind::kTwoParty && !j.two_party.pcap_path.empty()) {
        const TwoPartyConfig& c = j.two_party;
        if (!write_pcap_file(c.pcap_path, o.two_party.c1_down_records,
                             c.trace_snaplen)) {
          throw std::runtime_error("cannot write " + c.pcap_path);
        }
        int64_t t2 = now_ns();
        bool ok = false;
        TraceAnalysis a =
            analyze_pcap_file(c.pcap_path, c.measure_from.seconds(), &ok);
        if (!ok) throw std::runtime_error("cannot read " + c.pcap_path);
        const StreamReport* v = a.primary_video();
        o.blind_fps = v != nullptr ? v->median_fps : 0.0;
        o.pcap_records = static_cast<int64_t>(o.two_party.c1_down_records.size());
        o.write_ns = t2 - t1;
        o.analyze_ns = now_ns() - t2;
      }
    } catch (const std::exception& e) {
      o.threw = true;
      o.error = e.what();
    }
    return o;
  }

  static void check_job(const Job& j, const JobOutput& o, Failures* out) {
    switch (j.kind) {
      case Kind::kTwoParty: {
        const TwoPartyConfig& c = j.two_party;
        if (j.table2) check_table2(c, o.two_party, out);
        if (j.shaped) check_shaped_utilization(c, o.two_party, out);
        if (!c.pcap_path.empty()) {
          check_blind_fps(c.profile + " call seed " + std::to_string(c.seed),
                          o.blind_fps,
                          truth_median_fps(o.two_party.c1_recv_seconds,
                                           c.measure_from),
                          out);
        }
        break;
      }
      case Kind::kCompetition:
        check_competition_shares(j.competition, o.competition, out);
        break;
      case Kind::kDisruption:
        if (o.disruption.disrupted_series.samples().empty()) {
          out->push_back("disruption: empty bitrate series");
        }
        break;
      case Kind::kMultiparty:
        if (!(o.multiparty.c1_down_mbps > 0.0)) {
          out->push_back("multiparty: C1 received nothing");
        }
        break;
    }
  }

  Options opts_;
  Spans& spans_;
  std::vector<Job> jobs_;
  // Traced run: counts of one round (identical every round) and the last
  // round's outputs, the recorded inputs of the direct drives.
  int64_t rounds_ = 0;
  uint64_t events_ = 0;
  int64_t link_pkts_ = 0;
  std::vector<JobOutput> last_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_calls(const Options& opts, Spans& spans) {
  return std::make_unique<PaperCalls>(opts, spans);
}

}  // namespace perfbench
