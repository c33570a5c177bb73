// Self-test of the benchmark's correctness checks: every check passes on a
// consistent output and fails once one output is corrupted (a shifted
// rate, a dropped packet, an extra active client, ...). A check that
// cannot fail proves nothing.
//
//   ctest --test-dir .bench_build/perfbench    (or run the binary)
#include <cstdio>
#include <functional>
#include <string>

#include "checks.h"

namespace {

using namespace vca;
using perfbench::Failures;

int g_failed = 0;

// Runs `check` and reports whether its verdict matches `want_pass`.
void expect(const char* what, bool want_pass,
            const std::function<void(Failures*)>& check) {
  Failures f;
  check(&f);
  bool passed = f.empty();
  if (passed != want_pass) {
    ++g_failed;
    std::printf("FAIL %s: expected %s, got %s\n", what,
                want_pass ? "pass" : "a failure",
                passed ? "pass" : f.front().c_str());
  } else {
    std::printf("ok   %s%s%s\n", what, passed ? "" : " -> ",
                passed ? "" : f.front().c_str());
  }
}

void table2_and_shaping() {
  TwoPartyConfig meet;
  meet.profile = "meet";
  TwoPartyResult r;
  r.c1_up_mbps = 0.95;
  r.c1_down_mbps = 0.84;
  expect("table2 meet at the paper's values", true,
         [&](Failures* f) { perfbench::check_table2(meet, r, f); });
  TwoPartyResult shifted = r;
  shifted.c1_up_mbps *= 1.7;
  expect("table2 meet uplink shifted x1.7", false,
         [&](Failures* f) { perfbench::check_table2(meet, shifted, f); });
  TwoPartyConfig teams = meet;
  teams.profile = "teams";
  TwoPartyResult tr;
  tr.c1_up_mbps = 1.3;
  tr.c1_down_mbps = 1.25;  // known gap: held to the paper's uplink 1.40
  expect("table2 teams within its band", true,
         [&](Failures* f) { perfbench::check_table2(teams, tr, f); });
  tr.c1_down_mbps = 0.5;
  expect("table2 teams downlink dropped to 0.5", false,
         [&](Failures* f) { perfbench::check_table2(teams, tr, f); });

  TwoPartyConfig shaped;
  shaped.c1_up = DataRate::kbps(500);
  TwoPartyResult sr;
  sr.c1_up_mbps = 0.49;
  sr.c1_down_mbps = 0.9;
  expect("shaped uplink under capacity", true, [&](Failures* f) {
    perfbench::check_shaped_utilization(shaped, sr, f);
  });
  sr.c1_up_mbps = 0.51;
  expect("shaped uplink over capacity", false, [&](Failures* f) {
    perfbench::check_shaped_utilization(shaped, sr, f);
  });
}

void competition_and_fps() {
  CompetitionConfig cfg;
  CompetitionResult r;
  r.incumbent_up_share = 0.6;
  r.competitor_up_share = 0.39;
  r.incumbent_down_share = 0.5;
  r.competitor_down_share = 0.5;
  expect("competition shares sum to <= 1", true, [&](Failures* f) {
    perfbench::check_competition_shares(cfg, r, f);
  });
  CompetitionResult over = r;
  over.competitor_up_share += 0.05;  // a shifted rate
  expect("competition up shares sum to 1.04", false, [&](Failures* f) {
    perfbench::check_competition_shares(cfg, over, f);
  });
  over = r;
  over.incumbent_down_share = 0.52;
  expect("competition down shares sum to 1.02", false, [&](Failures* f) {
    perfbench::check_competition_shares(cfg, over, f);
  });

  // The RateMeter fault's signature: a series that stops before the
  // share window [45 s, 150 s) ends, or starts after it begins.
  auto series = [](int from_s, int to_s) {
    TimeSeries t;
    for (int e = from_s + 1; e <= to_s; ++e) {
      t.push(TimePoint::zero() + Duration::seconds(e), 0.1);
    }
    return t;
  };
  CompetitionResult covered;
  covered.incumbent_up_series = covered.incumbent_down_series = series(0, 180);
  covered.competitor_up_series = covered.competitor_down_series =
      series(30, 151);
  expect("series cover the share window", true, [&](Failures* f) {
    if (perfbench::share_window_truncated(cfg, covered)) {
      f->push_back("reported truncated");
    }
  });
  CompetitionResult silent = covered;
  silent.competitor_up_series = series(45, 46);  // iPerf-up stalls at 46 s
  expect("competitor silent after 46 s", false, [&](Failures* f) {
    if (perfbench::share_window_truncated(cfg, silent)) {
      f->push_back("truncated");
    }
  });
  CompetitionResult late = covered;
  late.competitor_down_series = series(60, 151);
  expect("competitor starts after the window", false, [&](Failures* f) {
    if (perfbench::share_window_truncated(cfg, late)) {
      f->push_back("truncated");
    }
  });

  expect("blind fps within 10%", true,
         [&](Failures* f) { perfbench::check_blind_fps("x", 28.0, 30.0, f); });
  expect("blind fps 17% low", false,
         [&](Failures* f) { perfbench::check_blind_fps("x", 25.0, 30.0, f); });
  expect("blind fps without truth", false,
         [&](Failures* f) { perfbench::check_blind_fps("x", 30.0, 0.0, f); });

  std::vector<SecondStats> secs;
  for (int i = 1; i <= 5; ++i) {
    SecondStats s;
    s.at = TimePoint::zero() + Duration::seconds(i);
    s.fps = 10.0 * i;
    secs.push_back(s);
  }
  expect("truth median over the window", true, [&](Failures* f) {
    double m = perfbench::truth_median_fps(secs, Duration::seconds(2));
    if (m != 40.0) f->push_back("median " + std::to_string(m));
  });
}

// A real, small churned conference: its output passes, and each
// corrupted copy fails.
void conference() {
  ConferenceConfig cfg;
  cfg.participants = 12;
  cfg.regions = 2;
  cfg.duration = Duration::seconds(5);
  cfg.measure_from = Duration::seconds(3);
  cfg.late_joiners = 2;
  cfg.early_leavers = 3;
  cfg.churn_start = Duration::seconds(1);
  cfg.churn_step = Duration::millis(200);
  cfg.shards = 1;
  expect("active_at_end from config", true, [&](Failures* f) {
    int want = perfbench::expected_active_at_end(cfg);
    if (want != 9) f->push_back("expected 9, got " + std::to_string(want));
  });
  ConferenceResult r = run_conference(cfg);
  expect("real conference output", true,
         [&](Failures* f) { perfbench::check_conference(cfg, r, f); });

  auto corrupted = [&](const char* what,
                       const std::function<void(ConferenceResult&)>& edit) {
    ConferenceResult bad = r;
    edit(bad);
    expect(what, false,
           [&](Failures* f) { perfbench::check_conference(cfg, bad, f); });
  };
  corrupted("an extra active client", [](ConferenceResult& b) {
    b.active_at_end += 1;
  });
  corrupted("a forward to a departed client", [](ConferenceResult& b) {
    b.forwards_to_departed = 1;
  });
  corrupted("an invariant violation", [](ConferenceResult& b) {
    b.invariant_violations.push_back("link conservation");
  });
  corrupted("too many relay streams", [&](ConferenceResult& b) {
    b.regions[0].relay_out_streams =
        b.regions[0].clients * (cfg.regions - 1) + 1;
  });
  corrupted("relay over capacity", [](ConferenceResult& b) {
    b.regions[1].relay_up_utilization = 1.01;
  });
  corrupted("client downlink over access rate", [&](ConferenceResult& b) {
    b.mean_client_down_mbps = cfg.client_down.mbps_f() * 1.01;
  });
  corrupted("client uplink over access rate", [&](ConferenceResult& b) {
    b.mean_client_up_mbps = cfg.client_up.mbps_f() * 1.01;
  });
}

void invariants() {
  expect("no new invariant violations", true, [](Failures* f) {
    perfbench::check_invariants("round", 3, 3, f);
  });
  expect("one new invariant violation", false, [](Failures* f) {
    perfbench::check_invariants("round", 3, 4, f);
  });
}

void churn() {
  perfbench::ChurnOutcome c;
  c.generated_packets = c.ingested_packets = 1000;
  c.final_reports = c.promoted = 40;
  c.expected_hot_flows = 3;
  c.hot_fps = {30.0, 30.0, 29.0};
  c.heap_tracked = true;
  c.peak_live_bytes = 10 << 20;
  c.cap_bytes = 32 << 20;
  expect("churn outcome consistent", true,
         [&](Failures* f) { perfbench::check_churn(c, f); });
  auto corrupted = [&](const char* what,
                       const std::function<void(perfbench::ChurnOutcome&)>& edit) {
    perfbench::ChurnOutcome bad = c;
    edit(bad);
    expect(what, false, [&](Failures* f) { perfbench::check_churn(bad, f); });
  };
  corrupted("a dropped packet", [](auto& b) { b.ingested_packets -= 1; });
  corrupted("a lost final report", [](auto& b) { b.final_reports -= 1; });
  corrupted("a hot flow at 25 fps", [](auto& b) { b.hot_fps[1] = 25.0; });
  corrupted("a missing hot flow", [](auto& b) { b.hot_fps.pop_back(); });
  corrupted("heap over the cap", [](auto& b) {
    b.peak_live_bytes = b.cap_bytes + 1;
  });
  corrupted("heap not measured", [](auto& b) { b.heap_tracked = false; });
}

void replay() {
  StreamReport video;
  video.key = StreamKey{1, 2, 3, 4, 5};
  video.kind = StreamKind::kVideo;
  video.packets = 3000;
  video.ip_bytes = 3'000'000;
  video.frames = 900;
  video.median_fps = 30.0;
  StreamReport audio;
  audio.key = StreamKey{1, 2, 3, 4, 6};
  audio.kind = StreamKind::kAudio;
  audio.packets = 1500;
  TraceAnalysis offline;
  offline.streams = {video, audio};
  offline.streams[0].fps_per_sec = {30.0, 30.0};  // offline-only field
  std::vector<StreamReport> streaming = {audio, video};
  expect("replay reports equal", true, [&](Failures* f) {
    perfbench::check_replay(streaming, offline, 30.0, f);
  });
  auto corrupted = [&](const char* what,
                       const std::function<void(std::vector<StreamReport>&)>& edit,
                       double truth = 30.0) {
    std::vector<StreamReport> bad = streaming;
    edit(bad);
    expect(what, false, [&](Failures* f) {
      perfbench::check_replay(bad, offline, truth, f);
    });
  };
  corrupted("replay dropped a packet", [](auto& b) { b[1].packets -= 1; });
  corrupted("replay lost a flow", [](auto& b) { b.pop_back(); });
  corrupted("replay fps off the truth", [](auto&) {}, 20.0);
}

}  // namespace

int main() {
  table2_and_shaping();
  competition_and_fps();
  conference();
  invariants();
  churn();
  replay();
  std::printf("%s: %d failing expectation(s)\n", g_failed ? "FAILED" : "PASSED",
              g_failed);
  return g_failed == 0 ? 0 : 1;
}
