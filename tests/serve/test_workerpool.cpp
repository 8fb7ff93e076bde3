// The coordinator's worker registry (serve/workerpool.h): the pure health
// state machine, table-driven over the full transition graph — time is a
// parameter, so probation windows are tested without waiting them out —
// and the consistent-hash ring's routing and balance invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/workerpool.h"
#include "util/hash.h"

namespace sqz::serve {
namespace {

ProbePolicy test_policy() {
  ProbePolicy p;
  p.fail_threshold = 3;
  p.probation_ms = 1000;
  return p;
}

// --- the state machine, table-driven --------------------------------------

// One scripted event against the machine: feed a probe/dispatch outcome, or
// ask whether a probe is due (which is also the Ejected -> Probation edge).
struct Event {
  enum class Kind { Result, Due } kind;
  bool value;           // Result: the outcome. Due: the expected answer.
  std::int64_t now_ms;
  WorkerHealth expect;  // Health after the event.
};

Event result(bool ok, std::int64_t now_ms, WorkerHealth expect) {
  return {Event::Kind::Result, ok, now_ms, expect};
}
Event due(bool expect_due, std::int64_t now_ms, WorkerHealth expect) {
  return {Event::Kind::Due, expect_due, now_ms, expect};
}

struct Scenario {
  const char* name;
  std::vector<Event> events;
};

TEST(WorkerStateMachine, TransitionGraph) {
  const WorkerHealth H = WorkerHealth::Healthy;
  const WorkerHealth S = WorkerHealth::Suspect;
  const WorkerHealth E = WorkerHealth::Ejected;
  const WorkerHealth P = WorkerHealth::Probation;
  const std::vector<Scenario> scenarios = {
      {"healthy stays healthy on success",
       {result(true, 0, H), result(true, 10, H), result(true, 20, H)}},
      {"one failure makes a suspect, not a corpse",
       {result(false, 0, S), due(true, 10, S)}},
      {"a suspect recovers on the next success",
       {result(false, 0, S), result(true, 10, H)}},
      {"failures below the threshold never eject",
       {result(false, 0, S), result(false, 10, S), result(true, 20, H),
        result(false, 30, S), result(false, 40, S), result(true, 50, H)}},
      {"threshold consecutive failures eject",
       {result(false, 0, S), result(false, 10, S), result(false, 20, E)}},
      {"ejected workers are not probed inside the probation window",
       {result(false, 0, S), result(false, 10, S), result(false, 20, E),
        due(false, 500, E), due(false, 1019, E)}},
      {"the probation window elapsing grants a single trial",
       {result(false, 0, S), result(false, 10, S), result(false, 20, E),
        due(true, 1020, P)}},
      {"a passed trial readmits",
       {result(false, 0, S), result(false, 10, S), result(false, 20, E),
        due(true, 1020, P), result(true, 1030, H)}},
      {"a failed trial re-ejects and restarts the timer",
       {result(false, 0, S), result(false, 10, S), result(false, 20, E),
        due(true, 1020, P), result(false, 1030, E),
        due(false, 1040, E),          // old window origin would say due
        due(true, 2031, P)}},         // the restarted one eventually does
      {"a success observed while ejected readmits (straggling dispatch)",
       {result(false, 0, S), result(false, 10, S), result(false, 20, E),
        result(true, 100, H)}},
      {"readmission resets the failure count",
       {result(false, 0, S), result(false, 10, S), result(true, 20, H),
        result(false, 30, S), result(false, 40, S), result(false, 50, E)}},
  };

  for (const Scenario& sc : scenarios) {
    WorkerStateMachine m(test_policy());
    for (std::size_t i = 0; i < sc.events.size(); ++i) {
      const Event& e = sc.events[i];
      if (e.kind == Event::Kind::Result) {
        m.on_result(e.value, e.now_ms);
      } else {
        EXPECT_EQ(m.probe_due(e.now_ms), e.value)
            << sc.name << ", event " << i;
      }
      EXPECT_EQ(m.health(), e.expect) << sc.name << ", event " << i;
    }
  }
}

TEST(WorkerStateMachine, UsableMeansHealthyOrSuspect) {
  WorkerStateMachine m(test_policy());
  EXPECT_TRUE(m.usable());
  m.on_result(false, 0);
  EXPECT_TRUE(m.usable());  // Suspect still takes chunks
  m.on_result(false, 10);
  m.on_result(false, 20);
  EXPECT_FALSE(m.usable());  // Ejected
  m.probe_due(2000);
  EXPECT_EQ(m.health(), WorkerHealth::Probation);
  EXPECT_FALSE(m.usable());  // Probation waits for its trial
  m.on_result(true, 2010);
  EXPECT_TRUE(m.usable());
}

TEST(WorkerStateMachine, EjectionTransitionFiresOnce) {
  WorkerStateMachine m(test_policy());
  m.on_result(false, 0);
  m.on_result(false, 10);
  EXPECT_TRUE(m.on_result(false, 20));
  // Further failures while already ejected are not "new" ejections.
  EXPECT_FALSE(m.on_result(false, 30));
}

// --- the consistent-hash ring ----------------------------------------------

// Fixed loopback addresses: these units never start the prober, so nothing
// is contacted, and fixed ports keep the ring (and every assertion over
// it) identical on every run.
std::vector<HostPort> fleet(int n) {
  std::vector<HostPort> out;
  for (int i = 0; i < n; ++i) out.push_back({"127.0.0.1", 9001 + i});
  return out;
}

TEST(WorkerPoolRing, RoutingIsDeterministic) {
  WorkerPool pool(fleet(3), test_policy());
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t h = util::fnv1a64("point-" + std::to_string(i));
    const int w = pool.route(h);
    ASSERT_GE(w, 0);
    ASSERT_LT(w, 3);
    EXPECT_EQ(pool.route(h), w);  // same hash, same worker, every time
  }
}

TEST(WorkerPoolRing, EveryWorkerOwnsSomeArc) {
  WorkerPool pool(fleet(3), test_policy());
  std::map<int, int> hits;
  for (int i = 0; i < 4096; ++i)
    ++hits[pool.route(util::fnv1a64("key-" + std::to_string(i)))];
  ASSERT_EQ(hits.size(), 3u) << "64 vnodes each should spread 4096 keys";
  // Addresses that differ only in their last bytes must still interleave
  // on the ring: each of the three workers takes 20-47 % of the keys.
  for (const auto& [w, n] : hits) {
    EXPECT_GE(n, 4096 * 20 / 100) << "worker " << w << " starved";
    EXPECT_LE(n, 4096 * 47 / 100) << "worker " << w << " overloaded";
  }
}

TEST(WorkerPoolRing, ExclusionPicksADifferentWorker) {
  WorkerPool pool(fleet(3), test_policy());
  const std::uint64_t h = util::fnv1a64("some chunk");
  const int first = pool.route(h);
  const int second = pool.route(h, {first});
  ASSERT_GE(second, 0);
  EXPECT_NE(second, first);
  const int third = pool.route(h, {first, second});
  ASSERT_GE(third, 0);
  EXPECT_NE(third, first);
  EXPECT_NE(third, second);
  EXPECT_EQ(pool.route(h, {first, second, third}), -1);
}

TEST(WorkerPoolRing, EjectionRedistributesOnlyTheDeadWorkersArcs) {
  WorkerPool pool(fleet(3), test_policy());
  std::map<std::uint64_t, int> before;
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t h = util::fnv1a64("stable-" + std::to_string(i));
    before[h] = pool.route(h);
  }
  // Eject worker 0 through dispatch reports — the same signal a failed
  // chunk POST feeds.
  pool.report(0, false);
  pool.report(0, false);
  pool.report(0, false);
  EXPECT_EQ(pool.health(0), WorkerHealth::Ejected);
  EXPECT_EQ(pool.usable_count(), 2u);
  for (const auto& [h, w] : before) {
    const int now = pool.route(h);
    ASSERT_GE(now, 0);
    if (w != 0)
      EXPECT_EQ(now, w) << "a survivor's shard must not move";
    else
      EXPECT_NE(now, 0) << "the dead worker's arcs must move";
  }
}

TEST(WorkerPoolRing, AllEjectedRoutesNowhere) {
  WorkerPool pool(fleet(2), test_policy());
  for (int w = 0; w < 2; ++w)
    for (int i = 0; i < 3; ++i) pool.report(static_cast<std::size_t>(w), false);
  EXPECT_EQ(pool.usable_count(), 0u);
  EXPECT_EQ(pool.route(util::fnv1a64("anything")), -1);
  // A straggling in-flight success readmits its worker and routing resumes.
  pool.report(1, true);
  EXPECT_EQ(pool.route(util::fnv1a64("anything")), 1);
}

}  // namespace
}  // namespace sqz::serve
