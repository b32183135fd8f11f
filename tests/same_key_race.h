// Same-key update races, phase by phase, for tests of unsuccessful updates.
//
// In each phase every racing thread applies the same update to the same
// key, so exactly one of them changes the set (when the update can change
// it at all) and the others fail, often while the winner is still
// carrying its effect to the root.  A thread whose update failed checks
// right away that it observes the state it reported: k present after a
// failed insert, absent after a failed erase.  Every update in a phase
// targets one key and the winner linearizes before any loser can fail, so
// that state holds from the loser's response to the end of the phase.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/backoff.h"
#include "util/keys.h"

namespace cbat {

// Spinning keeps the released threads within a few hundred nanoseconds of
// each other, which a sleeping barrier's wake-up latency would not; after
// a while it yields, so oversubscribed or single-core hosts still make
// progress.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties) {}
  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  void arrive_and_wait() {
    const std::uint64_t gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      // relaxed: the release increment of gen_ below publishes the reset
      // to every thread that leaves through it.
      arrived_.store(0, std::memory_order_relaxed);
      gen_.fetch_add(1, std::memory_order_release);
      return;
    }
    for (std::uint32_t spins = 1; gen_.load(std::memory_order_acquire) == gen;
         ++spins) {
      cpu_relax();
      if (spins % 256 == 0) std::this_thread::yield();
    }
  }

 private:
  const int parties_;
  // shared: one barrier per race; the waiters poll gen_ by design.
  std::atomic<int> arrived_{0};
  std::atomic<std::uint64_t> gen_{0};
};

struct RacePhase {
  Key key;
  bool is_insert;
};

struct RaceResult {
  std::vector<int> wins;     // per phase: updates that reported a change
  int failed_updates = 0;    // updates that reported no change
  int bad_observations = 0;  // failed updates whose check disagreed
};

// Runs `phases` in order on `threads` threads.  `observes(k, present)` is
// called by each failed updater and returns whether the set shows k
// present (or absent) as reported.
template <class Set, class Observes>
RaceResult race_same_keys(Set& s, int threads,
                          const std::vector<RacePhase>& phases,
                          Observes observes) {
  // shared: tallies bumped once per update, read after the join.
  std::vector<std::atomic<int>> wins(phases.size());
  std::atomic<int> failed{0};
  std::atomic<int> bad{0};
  SpinBarrier barrier(threads);
  std::vector<std::thread> racers;
  racers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    racers.emplace_back([&] {
      for (std::size_t i = 0; i < phases.size(); ++i) {
        const RacePhase& p = phases[i];
        barrier.arrive_and_wait();
        if (p.is_insert ? s.insert(p.key) : s.erase(p.key)) {
          ++wins[i];
          continue;
        }
        ++failed;
        if (!observes(p.key, p.is_insert)) ++bad;
      }
    });
  }
  for (auto& r : racers) r.join();
  RaceResult res;
  for (auto& w : wins) res.wins.push_back(w.load());
  res.failed_updates = failed.load();
  res.bad_observations = bad.load();
  return res;
}

}  // namespace cbat
