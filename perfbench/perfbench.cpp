// The repository benchmark: throughput and per-operation latency of the
// paper's best single tree (BAT-EagerDel, subject "bat") and of the
// linearizable shard forest (Sharded16-BAT-Lin, subject "forest") on three
// workloads, plus a traced run that attributes time and work to layers.
// README.md in this directory documents the metrics and workloads.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--git-sha SHA] [--git-dirty 0|1]
//             [--source-hash HEX]
//   perfbench --self-test [--seed N]
//
// Load is a closed loop of kWorkers threads; each issues its next
// operation only after the previous one returns, and every operation is
// timed.  After each measured phase a correctness gate compares every
// structure with the workers' ledgers; any failure makes the exit code 1.
// The last line of stdout is the result as one JSON object.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/ordered_set.h"
#include "reclamation/ebr.h"
#include "util/counters.h"

#include "gen.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using cbat::Counter;
using cbat::Counters;
using cbat::api::AbstractOrderedSet;
using cbat::api::StructureRegistry;

// nproc - 1 on a 4-hardware-thread host: one core stays free for the main
// thread and the host, which keeps run-to-run spread low.
constexpr int kWorkers = 3;
constexpr int kSetupReps = 3;            // setups per untraced run
constexpr int kSlices = 10;              // interleaved slices, untraced run
constexpr int kTracedSlices = 4;         // interleaved slices per traced group
constexpr double kSliceWarmShare = 0.2;  // untimed warm-up before each slice
constexpr std::size_t kWarmUpdates = 1u << 16;
constexpr int kSampledChecks = 2000;     // quiescent select(rank(k)) checks
constexpr int kGenIters = 1 << 20;       // generator-alone kernel
constexpr int kGuardIters = 1 << 20;     // EbrGuard kernel
constexpr int kKernelIters = 1 << 15;    // quiescent query kernels
constexpr std::uint64_t kReplayStreamBase = 100;

const char* const kBatName = "BAT-EagerDel";
const char* const kForestName = "Sharded16-BAT-Lin";

// ---------------------------------------------------------------------------
// What a worker calls.  Each worker owns its own copy.

struct SetTarget {
  AbstractOrderedSet* s;
  // The planted fault of the gate's self-test: silently undo one in
  // drop_every successful inserts while still reporting success (0 = off).
  std::uint64_t drop_every = 0;
  std::uint64_t inserted = 0;

  std::int64_t execute(const Op& op) {
    switch (op.kind) {
      case OpKind::kInsert: {
        const bool r = s->insert(op.a);
        if (r && drop_every != 0 && ++inserted % drop_every == 0) {
          s->erase(op.a);
        }
        return r;
      }
      case OpKind::kErase:
        return s->erase(op.a);
      case OpKind::kFind:
        return s->contains(op.a);
      case OpKind::kRank:
        return s->rank(op.a);
      case OpKind::kSelect:
        return s->select_query(op.a);
      case OpKind::kRangeCount:
        return s->range_count(op.a, op.b);
      case OpKind::kRangeAggregate:
        return s->range_aggregate(op.a, op.b);
    }
    return 0;
  }
};

// Legal answers of a query that ran beside updates (Sela and Petrank's
// condition reduced to bounds every linearizable answer must meet).
bool query_in_bounds(const Op& op, std::int64_t r, const Workload& w) {
  switch (op.kind) {
    case OpKind::kRank:
      return r >= 0 && r <= std::min(op.a + 1, w.keyspace);
    case OpKind::kSelect:
      return r >= op.a - 1 && r < w.keyspace;
    case OpKind::kRangeCount:
    case OpKind::kRangeAggregate:
      return r >= 0 && r <= op.b - op.a + 1;
    default:
      return true;
  }
}

// ---------------------------------------------------------------------------
// Correctness ledger and gate.

struct Failures {
  std::uint64_t count = 0;
  std::vector<std::string> first;  // the first few, for the report

  void add(std::uint64_t n, const std::string& what) {
    if (n == 0) return;
    count += n;
    if (first.size() < 8) first.push_back(what);
  }
};

// Net successful inserts minus erases per key, one row per worker; the
// prefill row is the seeded half inserted before measuring.
struct Ledger {
  std::vector<std::uint8_t> prefill;
  std::vector<std::vector<std::int32_t>> per_worker;

  Ledger(const Workload& w, const std::vector<Key>& prefill_keys)
      : prefill(static_cast<std::size_t>(w.keyspace), 0),
        per_worker(kWorkers,
                   std::vector<std::int32_t>(
                       static_cast<std::size_t>(w.keyspace), 0)) {
    for (Key k : prefill_keys) prefill[static_cast<std::size_t>(k)] = 1;
  }
  std::int64_t net(Key k) const {
    std::int64_t n = prefill[static_cast<std::size_t>(k)];
    for (const auto& row : per_worker) n += row[static_cast<std::size_t>(k)];
    return n;
  }
};

// After the workers join: every key's net count is 0 or 1 and equals
// contains(k); size() equals the ledger total; select(rank(k)) == k on
// sampled present keys.
void verify(AbstractOrderedSet& s, const Ledger& ledger, const Workload& w,
            std::uint64_t seed, const std::string& who, Failures& fails) {
  std::atomic<std::uint64_t> bad_net{0}, bad_contains{0};
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> th;
  for (int i = 0; i < kWorkers; ++i) {
    th.emplace_back([&, i] {
      const Key lo = w.keyspace * i / kWorkers;
      const Key hi = w.keyspace * (i + 1) / kWorkers;
      std::uint64_t bn = 0, bc = 0;
      std::int64_t sum = 0;
      for (Key k = lo; k < hi; ++k) {
        const std::int64_t n = ledger.net(k);
        if (n != 0 && n != 1) ++bn;
        if (s.contains(k) != (n == 1)) ++bc;
        sum += n;
      }
      bad_net += bn;
      bad_contains += bc;
      total += sum;
    });
  }
  for (auto& x : th) x.join();
  fails.add(bad_net.load(), who + ": keys with net ledger count not 0 or 1");
  fails.add(bad_contains.load(), who + ": keys whose contains() != ledger");
  const std::int64_t sz = s.size();
  if (sz != total.load()) {
    fails.add(1, who + ": size() " + std::to_string(sz) + " != ledger total " +
                     std::to_string(total.load()));
  }
  if (!s.supports_order_statistics()) return;
  Rng rng(seed, kSampleStream);
  std::uint64_t bad_rs = 0;
  for (int i = 0; i < kSampledChecks; ++i) {
    const Key k =
        static_cast<Key>(rng.below(static_cast<std::uint64_t>(w.keyspace)));
    if (ledger.net(k) != 1) continue;
    if (s.select_query(s.rank(k)) != k) ++bad_rs;
  }
  fails.add(bad_rs, who + ": select(rank(k)) != k");
}

// ---------------------------------------------------------------------------
// One measured phase: kWorkers closed-loop threads drive one or more
// subjects in `slices` rounds; in each round every subject in turn gets a
// warm interval and then a timed interval.  Interleaving the subjects in
// short slices, and reporting medians over slices, keeps a burst of load
// from outside the process off any one subject's whole measurement, and
// makes ratios between subjects of one phase compare like with like.
// Between intervals the workers pause, so each subject's counter delta is
// read race-free.  Ledger and bounds checks run in every interval.

struct PhaseResult {
  double elapsed_s = 0;
  std::uint64_t ops_total = 0;  // warm + timed (the ledger covers both)
  std::uint64_t timed_ops = 0;
  std::array<std::uint64_t, kNumOpClasses> class_total{};  // warm + timed
  std::array<Histogram, kNumOpClasses> hist;

  double mops() const {
    return elapsed_s > 0 ? static_cast<double>(timed_ops) / elapsed_s / 1e6
                         : 0.0;
  }
  std::uint64_t updates() const {
    return class_total[static_cast<int>(OpClass::kUpdate)];
  }
  const Histogram& of(OpClass c) const { return hist[static_cast<int>(c)]; }
  void merge(const PhaseResult& o) {
    elapsed_s += o.elapsed_s;
    ops_total += o.ops_total;
    timed_ops += o.timed_ops;
    for (int c = 0; c < kNumOpClasses; ++c) {
      class_total[c] += o.class_total[c];
      hist[c].merge(o.hist[c]);
    }
  }
};

struct Subject {
  std::string name;
  AbstractOrderedSet* set;
  Ledger* ledger;  // subjects replaying into one structure share its ledger
  bool traced = false;
  std::uint64_t drop_every = 0;
  // Added to the worker index to pick the op stream: subjects on different
  // structures replay the same streams; a second subject on the same
  // structure takes fresh ones.
  std::uint64_t stream_base = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double safe_div(double a, double b) { return b != 0 ? a / b : 0.0; }

// One subject's share of a phase.
struct SubjectRun {
  std::vector<PhaseResult> slices;
  PhaseResult total;
  Counters::Snapshot counters;  // summed over this subject's intervals
  std::array<SpanTotals, kNumSpanNames> spans{};

  double median_mops() const {
    std::vector<double> v;
    for (const PhaseResult& r : slices) v.push_back(r.mops());
    return median(v);
  }
};

struct RawTrace {
  std::string subject;
  int worker;
  std::vector<RawSpan> spans;
};

struct PhaseConfig {
  const WorkloadInputs* in;
  std::uint64_t seed;
  double warm_s;   // per slice and subject
  double timed_s;  // per slice and subject
  int slices;
};

// The phase control word: stage in the low 2 bits, the subject in the next
// 6, then the slice (or, in a pause, the pause number).
enum Stage : std::uint32_t { kStagePause, kStageWarm, kStageTimed, kStageStop };
constexpr std::uint32_t control(Stage st, std::size_t subject, std::size_t n) {
  return st | static_cast<std::uint32_t>(subject) << 2 |
         static_cast<std::uint32_t>(n) << 8;
}

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

std::vector<SubjectRun> run_phase(const std::vector<Subject>& subjects,
                                  const PhaseConfig& cfg, Failures& fails,
                                  std::vector<RawTrace>* raw_out = nullptr) {
  const Workload& w = *cfg.in->w;
  const std::size_t ns = subjects.size();
  const auto nsl = static_cast<std::size_t>(cfg.slices);
  std::atomic<std::uint32_t> ctl{control(kStagePause, 0, 0)};
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> paused{0};
  // per[worker][subject][slice]
  std::vector<std::vector<std::vector<PhaseResult>>> per(
      kWorkers, std::vector<std::vector<PhaseResult>>(
                    ns, std::vector<PhaseResult>(nsl)));
  std::vector<std::vector<std::uint64_t>> bad(
      kWorkers, std::vector<std::uint64_t>(ns, 0));
  // recs[worker][subject], only for traced subjects
  std::vector<std::vector<std::unique_ptr<SpanRecorder>>> recs(kWorkers);
  for (int wi = 0; wi < kWorkers; ++wi) {
    for (const Subject& s : subjects) {
      recs[static_cast<std::size_t>(wi)].push_back(
          s.traced ? std::make_unique<SpanRecorder>() : nullptr);
    }
  }

  std::vector<std::thread> th;
  for (int wi = 0; wi < kWorkers; ++wi) {
    th.emplace_back([&, wi] {
      const auto wu = static_cast<std::size_t>(wi);
      std::vector<Generator> gens;
      std::vector<SetTarget> targets;
      for (const Subject& s : subjects) {
        gens.emplace_back(*cfg.in, cfg.seed, s.stream_base + wu);
        targets.push_back({s.set, s.drop_every});
        s.set->warm_up(kWarmUpdates);
      }
      std::uint32_t acked = ctl.load();
      ready.fetch_add(1);
      std::uint64_t op_id = std::uint64_t{wu} << 40;
      for (;;) {
        const std::uint32_t c = ctl.load(std::memory_order_acquire);
        const auto st = static_cast<Stage>(c & 3);
        if (st == kStageStop) break;
        if (st == kStagePause) {
          if (c != acked) {
            acked = c;
            paused.fetch_add(1, std::memory_order_acq_rel);
          }
          std::this_thread::yield();
          continue;
        }
        const std::size_t s = (c >> 2) & 63;
        const bool timed = st == kStageTimed;
        SetTarget& t = targets[s];
        PhaseResult& r = per[wu][s][c >> 8];
        const Op op = gens[s].next();
        const OpClass cls = class_of(op.kind);
        if (cls == OpClass::kQuery && !t.s->supports_order_statistics()) {
          continue;
        }
        std::int64_t res;
        const std::uint64_t t0 = now_ns();
        if (subjects[s].traced && timed) {
          SpanRecorder* rec = recs[wu][s].get();
          SpanRecorder::current() = rec;
          rec->begin_op(op_id++);
          {
            Span root(root_span_of(op.kind));
            res = t.execute(op);
          }
          SpanRecorder::current() = nullptr;
        } else {
          res = t.execute(op);
        }
        const std::uint64_t t1 = now_ns();
        if (res != 0 &&
            (op.kind == OpKind::kInsert || op.kind == OpKind::kErase)) {
          subjects[s].ledger->per_worker[wu][static_cast<std::size_t>(op.a)] +=
              op.kind == OpKind::kInsert ? 1 : -1;
        } else if (cls == OpClass::kQuery && !query_in_bounds(op, res, w)) {
          ++bad[wu][s];
        }
        ++r.ops_total;
        ++r.class_total[static_cast<int>(cls)];
        if (timed) {
          ++r.timed_ops;
          r.hist[static_cast<int>(cls)].record(t1 - t0);
        }
      }
    });
  }

  std::vector<SubjectRun> out(ns);
  for (auto& o : out) o.slices.resize(nsl);
  while (ready.load() < kWorkers) std::this_thread::yield();
  std::uint64_t pauses = 0;
  Counters::Snapshot before = Counters::snapshot();
  for (std::size_t sl = 0; sl < nsl; ++sl) {
    for (std::size_t s = 0; s < ns; ++s) {
      ctl.store(control(kStageWarm, s, sl), std::memory_order_release);
      sleep_s(cfg.warm_s);
      const std::uint64_t t0 = now_ns();
      ctl.store(control(kStageTimed, s, sl), std::memory_order_release);
      sleep_s(cfg.timed_s);
      ctl.store(control(kStagePause, 0, ++pauses), std::memory_order_release);
      const std::uint64_t t1 = now_ns();
      // Every worker's counter writes happen before its acknowledgement.
      while (paused.load(std::memory_order_acquire) < pauses * kWorkers) {
        std::this_thread::yield();
      }
      out[s].slices[sl].elapsed_s = static_cast<double>(t1 - t0) / 1e9;
      const Counters::Snapshot after = Counters::snapshot();
      for (int i = 0; i < Counters::kN; ++i) {
        out[s].counters.v[i] += after.v[i] - before.v[i];
      }
      before = after;
    }
  }
  ctl.store(control(kStageStop, 0, 0), std::memory_order_release);
  for (auto& x : th) x.join();

  for (std::size_t s = 0; s < ns; ++s) {
    for (std::size_t sl = 0; sl < nsl; ++sl) {
      PhaseResult& r = out[s].slices[sl];
      const double elapsed = r.elapsed_s;
      for (int wi = 0; wi < kWorkers; ++wi) {
        r.merge(per[static_cast<std::size_t>(wi)][s][sl]);
      }
      r.elapsed_s = elapsed;
      out[s].total.merge(r);
    }
    std::uint64_t bad_total = 0;
    for (int wi = 0; wi < kWorkers; ++wi) {
      const auto wu = static_cast<std::size_t>(wi);
      bad_total += bad[wu][s];
      if (!subjects[s].traced) continue;
      const auto& tot = recs[wu][s]->totals();
      for (int n = 0; n < kNumSpanNames; ++n) {
        out[s].spans[n].count += tot[n].count;
        out[s].spans[n].total_ns += tot[n].total_ns;
        out[s].spans[n].self_ns += tot[n].self_ns;
      }
      if (raw_out != nullptr) {
        raw_out->push_back({subjects[s].name, wi, recs[wu][s]->raw()});
      }
    }
    fails.add(bad_total, subjects[s].name +
                             ": concurrent query answers out of legal bounds");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Set-up: construct, configure, prefill with kWorkers threads.

void prefill(AbstractOrderedSet& s, const std::vector<Key>& keys,
             const std::string& who, Failures& fails) {
  std::atomic<std::uint64_t> dup{0};
  std::vector<std::thread> th;
  for (int i = 0; i < kWorkers; ++i) {
    th.emplace_back([&, i] {
      const std::size_t lo =
          keys.size() * static_cast<std::size_t>(i) / kWorkers;
      const std::size_t hi =
          keys.size() * static_cast<std::size_t>(i + 1) / kWorkers;
      std::uint64_t d = 0;
      for (std::size_t j = lo; j < hi; ++j) d += s.insert(keys[j]) ? 0 : 1;
      dup += d;
    });
  }
  for (auto& x : th) x.join();
  fails.add(dup.load(), who + ": prefill inserts of distinct keys that failed");
}

// A registered structure, configured and prefilled; null if the registry no
// longer has it.
std::unique_ptr<AbstractOrderedSet> build(const std::string& name,
                                          const Workload& w,
                                          const std::vector<Key>& keys,
                                          Failures& fails) {
  auto s = StructureRegistry::instance().create(name);
  if (!s) return nullptr;
  cbat::api::SetOptions opts;
  opts.key_range_hint = w.keyspace;
  s->configure(opts);
  prefill(*s, keys, name, fails);
  return s;
}

// ---------------------------------------------------------------------------
// Metrics and the result document.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;
  bool absent = false;
  std::vector<double> slices{};  // per-slice values behind a median
};

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool self_test = false;
  std::string out_dir = ".bench_build/results";
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
  std::string source_hash = "unknown";
};

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

std::vector<std::pair<std::string, std::string>> provenance(const Args& a) {
  return {
      {"git_sha", a.git_sha},
      {"git_dirty", a.git_dirty},
      {"source_sha256", a.source_hash},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"compiler", compiler_id()},
      {"build_flags", PERFBENCH_BUILD_FLAGS},
      {"workers", std::to_string(kWorkers)},
      {"workload", a.workload},
      {"seed", std::to_string(a.seed)},
      {"seconds", num(a.seconds)},
      {"trace", std::to_string(a.trace)},
  };
}

// Prints the human-readable table, writes the result document, and prints
// the one-line result last.
void report(const Args& a, const std::vector<Metric>& metrics,
            const Failures& fails, std::uint64_t attempted,
            const std::string& spans_file) {
  const auto prov = provenance(a);
  const bool correct = fails.count == 0;
  const double failed_frac = safe_div(static_cast<double>(fails.count),
                                      static_cast<double>(attempted));
  for (const auto& [k, v] : prov) {
    std::printf("# %s: %s\n", k.c_str(), v.c_str());
  }
  std::printf("%-44s %22s  %-10s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-44s %22s  %-10s %llu%s\n", m.name.c_str(),
                num(m.value).c_str(), m.unit.c_str(),
                static_cast<unsigned long long>(m.samples),
                m.absent ? "  (absent)" : "");
  }
  std::printf("%-44s %22s  %-10s %llu  (%llu failed checks)\n", "failed_frac",
              num(failed_frac).c_str(), "frac",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(fails.count));
  for (const auto& f : fails.first) std::printf("FAILED: %s\n", f.c_str());

  std::string doc = "{\"provenance\":{";
  for (std::size_t i = 0; i < prov.size(); ++i) {
    doc += (i ? "," : "") + json_str(prov[i].first) + ":" +
           json_str(prov[i].second);
  }
  doc += "},\"correct\":" + std::string(correct ? "true" : "false");
  doc += ",\"attempted\":" + std::to_string(attempted);
  doc += ",\"failed\":" + std::to_string(fails.count);
  doc += ",\"failed_frac\":" + num(failed_frac);
  doc += ",\"failures\":[";
  for (std::size_t i = 0; i < fails.first.size(); ++i) {
    doc += (i ? "," : "") + json_str(fails.first[i]);
  }
  doc += "],\"spans_file\":" + json_str(spans_file) + ",\"metrics\":[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    doc += std::string(i ? "," : "") + "{\"name\":" + json_str(m.name) +
           ",\"value\":" + num(m.value) + ",\"unit\":" + json_str(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) +
           ",\"absent\":" + (m.absent ? "true" : "false");
    if (!m.slices.empty()) {
      doc += ",\"slices\":[";
      for (std::size_t j = 0; j < m.slices.size(); ++j) {
        doc += (j ? "," : "") + num(m.slices[j]);
      }
      doc += "]";
    }
    doc += "}";
  }
  doc += "]}\n";
  const std::string path = a.out_dir + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + "-trace" +
                           std::to_string(a.trace) + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(doc.c_str(), f);
    std::fclose(f);
    std::printf("# result document: %s\n", path.c_str());
  }

  std::string line = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(fails.count) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    line += (i ? "," : "") + json_str(m.name) + ":{\"value\":" + num(m.value) +
            ",\"unit\":" + json_str(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// The untraced run: the end-to-end metrics.  Each figure is the median over
// the phase's slices of that slice's value; the sample count is over all
// slices.

void subject_metrics(const std::string& s, const SubjectRun& r,
                     std::vector<Metric>& m) {
  const auto add = [&](const std::string& name, const char* unit,
                       std::uint64_t samples, auto fn) {
    std::vector<double> v;
    for (const PhaseResult& sl : r.slices) v.push_back(fn(sl));
    m.push_back({s + name, median(v), unit, samples, false, v});
  };
  const auto lat = [&](const std::string& name, OpClass c, double p) {
    add(name, "us", r.total.of(c).count(), [&](const PhaseResult& sl) {
      return sl.of(c).quantile(p) / 1e3;
    });
  };
  add(".mops", "Mops/s", r.total.timed_ops,
      [](const PhaseResult& sl) { return sl.mops(); });
  lat(".update_p50_us", OpClass::kUpdate, 0.50);
  lat(".update_p99_us", OpClass::kUpdate, 0.99);
  lat(".find_p50_us", OpClass::kFind, 0.50);
  lat(".query_p50_us", OpClass::kQuery, 0.50);
  lat(".query_p99_us", OpClass::kQuery, 0.99);
}

// Each of the kSetupReps set-ups is timed and then measured for its share of
// the kSlices slices, so the measurement spans the whole run (and three
// independently built pairs of structures), not one stretch after set-up.
std::uint64_t run_untraced(const Args& a, const WorkloadInputs& in,
                           const std::vector<Key>& keys,
                           std::vector<Metric>& m, Failures& fails) {
  const Workload& w = *in.w;
  // Half the run per subject, in kSlices interleaved slices.
  const double timed = a.seconds / 2 / kSlices;
  std::vector<double> setups;
  std::vector<SubjectRun> runs(2);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    auto bat = build(kBatName, w, keys, fails);
    auto forest = build(kForestName, w, keys, fails);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!bat || !forest) {
      fails.add(1, "a subject is not registered");
      return 1;
    }
    const int slices = kSlices * (rep + 1) / kSetupReps - kSlices * rep / kSetupReps;
    Ledger bat_ledger(w, keys), forest_ledger(w, keys);
    const std::vector<SubjectRun> r = run_phase(
        {{"bat", bat.get(), &bat_ledger},
         {"forest", forest.get(), &forest_ledger}},
        {&in, a.seed, timed * kSliceWarmShare, timed, slices}, fails);
    verify(*bat, bat_ledger, w, a.seed, "bat", fails);
    verify(*forest, forest_ledger, w, a.seed, "forest", fails);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      runs[i].slices.insert(runs[i].slices.end(), r[i].slices.begin(),
                            r[i].slices.end());
      runs[i].total.merge(r[i].total);
    }
  }
  subject_metrics("bat", runs[0], m);
  subject_metrics("forest", runs[1], m);
  m.push_back({"setup_s", median(setups), "s", setups.size(), false, setups});
  m.push_back({"peak_rss_mb", proc_status_mb("VmHWM"), "MiB", 1});
  return runs[0].total.ops_total + runs[1].total.ops_total;
}

// ---------------------------------------------------------------------------
// The traced run: the per-layer metrics, from three groups of structures.
// Each group is one interleaved phase, so the ratios between its members
// compare like with like:
//   tree:   bat, bat replayed with tracing on, ChromaticSet
//   forest: forest, the traced forest (TracedForestSet), Sharded16-BAT
//   ladder: Sharded16-BAT, Sharded16-Combined-BAT, Sharded16-Combined-BAT-RC
// A structure the registry no longer has is left out of its group, and the
// metrics that need it are reported absent.

// A counter of util/counters.h as a double, or 0 when the counter no longer
// exists, so that deleting a layer (and its counters) leaves the benchmark
// building.
#define PERFBENCH_COUNTER(snap, name)              \
  ([&]<class C = Counter>() -> double {            \
    if constexpr (requires { C::name; }) {         \
      return static_cast<double>((snap)[C::name]); \
    } else {                                       \
      return 0.0;                                  \
    }                                              \
  }())

template <class Fn>
double kernel_ns(int iters, Fn fn) {
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < iters; ++i) fn(i);
  return static_cast<double>(now_ns() - t0) / iters;
}

struct GroupMember {
  std::string name;      // subject name
  std::string registry;  // registry name; empty: the group's own structure
  bool traced = false;
  std::string replays{};  // replay into this earlier member's structure
};

struct Group {
  std::map<std::string, SubjectRun> runs;  // absent structures are missing
  double rss_growth_mb = 0;                // RSS after the phase - before

  bool has(const std::string& n) const { return runs.count(n) > 0; }
  const SubjectRun& get(const std::string& n) const {
    static const SubjectRun none;
    const auto it = runs.find(n);
    return it == runs.end() ? none : it->second;
  }
};

// Builds a group's structures, runs them interleaved, verifies each, hands
// each to `after` while it is still quiescent, and destroys them.
Group run_group(const std::vector<GroupMember>& members,
                std::unique_ptr<AbstractOrderedSet> own, const Args& a,
                const WorkloadInputs& in, const std::vector<Key>& keys,
                const PhaseConfig& cfg, Failures& fails,
                std::vector<RawTrace>& raw, std::uint64_t& attempted,
                const std::function<void(AbstractOrderedSet&)>& after = {}) {
  const Workload& w = *in.w;
  std::map<std::string, std::unique_ptr<AbstractOrderedSet>> sets;
  std::map<std::string, std::unique_ptr<Ledger>> ledgers;
  std::vector<Subject> subjects;
  for (const GroupMember& m : members) {
    if (!m.replays.empty()) {
      if (sets.count(m.replays) == 0) continue;
      subjects.push_back({m.name, sets[m.replays].get(),
                          ledgers[m.replays].get(), m.traced, 0,
                          kReplayStreamBase});
      continue;
    }
    std::unique_ptr<AbstractOrderedSet> s;
    if (m.registry.empty()) {
      s = std::move(own);
      prefill(*s, keys, m.name, fails);
    } else {
      s = build(m.registry, w, keys, fails);
    }
    if (!s) continue;
    ledgers[m.name] = std::make_unique<Ledger>(w, keys);
    subjects.push_back({m.name, s.get(), ledgers[m.name].get(), m.traced});
    sets[m.name] = std::move(s);
  }
  Group g;
  const double rss0 = proc_status_mb("VmRSS");
  const std::vector<SubjectRun> r = run_phase(subjects, cfg, fails, &raw);
  g.rss_growth_mb = proc_status_mb("VmRSS") - rss0;
  for (std::size_t i = 0; i < subjects.size(); ++i) {
    g.runs[subjects[i].name] = r[i];
    attempted += r[i].total.ops_total;
  }
  for (auto& [name, s] : sets) {
    verify(*s, *ledgers[name], w, a.seed, name, fails);
    if (after) after(*s);
  }
  sets.clear();
  cbat::Ebr::drain();
  return g;
}

std::uint64_t run_traced(const Args& a, const WorkloadInputs& in,
                         const std::vector<Key>& keys, std::vector<Metric>& m,
                         Failures& fails, std::vector<RawTrace>& raw) {
  const Workload& w = *in.w;
  const double timed = a.seconds / 32;
  const PhaseConfig cfg{&in, a.seed, timed * kSliceWarmShare, timed,
                        kTracedSlices};
  std::uint64_t attempted = 0;
  const auto add = [&](const std::string& n, double v, const char* unit,
                       std::uint64_t samples, bool absent = false) {
    m.push_back({n, absent ? 0.0 : v, unit, samples, absent});
  };

  // Kernels: the generator alone and the EBR guard.
  Generator gen(in, a.seed, kKernelStream);
  Key sink = 0;
  const double gen_ns =
      kernel_ns(kGenIters, [&](int) { sink += gen.next().a; });
  const double guard_ns = kernel_ns(kGuardIters, [](int) { cbat::EbrGuard g; });

  // The quiescent query kernels run on bat after the tree group's phase.
  double rank_ns = 0, select_ns = 0, range_ns = 0, limbo = 0;
  const auto bat_kernels = [&](AbstractOrderedSet& s) {
    if (s.name() != kBatName) return;
    limbo = static_cast<double>(cbat::Ebr::pending());
    Rng rng(a.seed, kKernelStream);
    const auto size = static_cast<std::uint64_t>(std::max<std::int64_t>(1, s.size()));
    const auto span = static_cast<std::uint64_t>(w.keyspace - w.range_width);
    rank_ns = kernel_ns(kKernelIters, [&](int) {
      sink += s.rank(static_cast<Key>(rng.below(static_cast<std::uint64_t>(w.keyspace))));
    });
    select_ns = kernel_ns(kKernelIters, [&](int) {
      sink += s.select_query(1 + static_cast<Key>(rng.below(size)));
    });
    range_ns = kernel_ns(kKernelIters, [&](int) {
      const Key lo = static_cast<Key>(rng.below(span));
      sink += s.range_count(lo, lo + w.range_width - 1);
    });
  };
  const Group tree = run_group({{"bat", kBatName},
                                {"bat.traced", "", true, "bat"},
                                {"ChromaticSet", "ChromaticSet"}},
                               nullptr, a, in, keys, cfg, fails, raw,
                               attempted, bat_kernels);
  std::array<std::uint64_t, TracedForestSet::kShards> shard_upd{};
  const Group forest = run_group(
      {{"forest", kForestName},
       {"forest.traced", "", true},
       {"Sharded16-BAT", "Sharded16-BAT"}},
      std::make_unique<TracedForestSet>(w.keyspace), a, in, keys, cfg, fails,
      raw, attempted, [&](AbstractOrderedSet& s) {
        if (auto* t = dynamic_cast<TracedForestSet*>(&s)) {
          shard_upd = t->shard_updates();
        }
      });
  const Group ladder =
      run_group({{"Sharded16-BAT", "Sharded16-BAT"},
                 {"Sharded16-Combined-BAT", "Sharded16-Combined-BAT"},
                 {"Sharded16-Combined-BAT-RC", "Sharded16-Combined-BAT-RC"}},
                nullptr, a, in, keys, cfg, fails, raw, attempted);
  if (sink == 42) std::printf("#\n");  // keeps the kernels' results live

  const auto mean_ns = [](const SpanTotals& t, bool self) {
    return safe_div(static_cast<double>(self ? t.self_ns : t.total_ns),
                    static_cast<double>(t.count));
  };
  const auto spans = [](const SubjectRun& r,
                        std::initializer_list<SpanName> names) {
    SpanTotals s;
    for (SpanName n : names) {
      s.count += r.spans[n].count;
      s.total_ns += r.spans[n].total_ns;
      s.self_ns += r.spans[n].self_ns;
    }
    return s;
  };
  // Throughput of `num` over that of `den`, both of group g: the median over
  // slices of the ratio within a slice, where the two ran back to back.
  const auto mops_ratio = [](const Group& g, const std::string& num,
                             const std::string& den) {
    const SubjectRun& a = g.get(num);
    const SubjectRun& b = g.get(den);
    std::vector<double> v;
    for (std::size_t i = 0; i < a.slices.size() && i < b.slices.size(); ++i) {
      v.push_back(safe_div(a.slices[i].mops(), b.slices[i].mops()));
    }
    return median(v);
  };
  const auto ratio = [&](const char* metric, const Group& g,
                         const std::string& num, const std::string& den) {
    add(metric, mops_ratio(g, num, den), "ratio", g.get(num).total.timed_ops,
        !g.has(num) || !g.has(den));
  };

  // shard
  const SubjectRun& ft = forest.get("forest.traced");
  const SpanTotals f_upd = spans(ft, {kApiInsert, kApiErase});
  const SpanTotals f_find = spans(ft, {kApiFind});
  add("shard.update_self_ns", mean_ns(f_upd, true), "ns", f_upd.count);
  add("shard.find_self_ns", mean_ns(f_find, true), "ns", f_find.count);
  add("shard.snapshot_acquire_ns", mean_ns(ft.spans[kShardSnapshot], false),
      "ns", ft.spans[kShardSnapshot].count);
  add("shard.query_compose_ns", mean_ns(ft.spans[kShardQuery], false), "ns",
      ft.spans[kShardQuery].count);
  ratio("shard.lin_cut_ratio", forest, "forest", "Sharded16-BAT");
  std::uint64_t shard_total = 0, shard_max = 0;
  for (auto c : shard_upd) {
    shard_total += c;
    shard_max = std::max(shard_max, c);
  }
  add("shard.hot_shard_share",
      safe_div(static_cast<double>(shard_max), static_cast<double>(shard_total)),
      "frac", shard_total);
  // shard cache / leasing (the -RC rung)
  const SubjectRun& rc = ladder.get("Sharded16-Combined-BAT-RC");
  const bool rc_absent = !ladder.has("Sharded16-Combined-BAT-RC");
  const double hits = PERFBENCH_COUNTER(rc.counters, kAggCacheHits);
  const double misses = PERFBENCH_COUNTER(rc.counters, kAggCacheMisses);
  const double rc_queries = static_cast<double>(
      rc.total.class_total[static_cast<int>(OpClass::kQuery)]);
  add("shard.agg_cache_hit_rate", safe_div(hits, hits + misses), "frac",
      static_cast<std::uint64_t>(hits + misses), rc_absent);
  add("shard.lease_cuts",
      safe_div(1e3 * PERFBENCH_COUNTER(rc.counters, kLeaseCuts), rc_queries),
      "1/kquery", static_cast<std::uint64_t>(rc_queries), rc_absent);
  ratio("shard.lease_rung_ratio", ladder, "Sharded16-Combined-BAT-RC",
        "Sharded16-Combined-BAT");
  // combine (the Sharded16-Combined-BAT rung)
  const SubjectRun& cb = ladder.get("Sharded16-Combined-BAT");
  const bool cb_absent = !ladder.has("Sharded16-Combined-BAT");
  const double batches = PERFBENCH_COUNTER(cb.counters, kCombineBatches);
  const double batched = PERFBENCH_COUNTER(cb.counters, kCombineBatchedOps);
  const double solo = PERFBENCH_COUNTER(cb.counters, kCombineSolo);
  ratio("combine.rung_ratio", ladder, "Sharded16-Combined-BAT",
        "Sharded16-BAT");
  add("combine.batch_occupancy", safe_div(batched, batches), "ops/batch",
      static_cast<std::uint64_t>(batches), cb_absent);
  add("combine.solo_frac", safe_div(solo, batched + solo), "frac",
      static_cast<std::uint64_t>(batched + solo), cb_absent);
  add("combine.timeouts_per_kop",
      safe_div(1e3 * PERFBENCH_COUNTER(cb.counters, kCombineTimeouts),
               static_cast<double>(cb.total.updates())),
      "1/kupdate", cb.total.updates(), cb_absent);
  // core, chromatic rebalancing and llxscx: the untraced bat subject
  const SubjectRun& bat = tree.get("bat");
  const SubjectRun& chrom = tree.get("ChromaticSet");
  const bool chrom_absent = !tree.has("ChromaticSet");
  const Counters::Snapshot& core = bat.counters;
  const std::uint64_t nbu = bat.total.updates();
  const auto per_update = [&](double c) {
    return safe_div(c, static_cast<double>(nbu));
  };
  const auto n = [](double c) { return static_cast<std::uint64_t>(c); };
  const Histogram& bat_uh = bat.total.of(OpClass::kUpdate);
  const Histogram& ch_uh = chrom.total.of(OpClass::kUpdate);
  const Histogram& ch_fh = chrom.total.of(OpClass::kFind);
  const double prop_calls = PERFBENCH_COUNTER(core, kPropagateCalls);
  const double cas = PERFBENCH_COUNTER(core, kRefreshCas);
  const double dels = PERFBENCH_COUNTER(core, kDelegations);
  const double scx = PERFBENCH_COUNTER(core, kScxAttempts);
  add("core.update_ns", bat_uh.mean(), "ns", bat_uh.count());
  add("core.propagate_share", 1.0 - safe_div(ch_uh.mean(), bat_uh.mean()),
      "frac", bat_uh.count(), chrom_absent);
  add("core.propagate_nodes_per_update",
      per_update(PERFBENCH_COUNTER(core, kPropagateNodes)), "nodes", nbu);
  add("core.extra_nodes_per_propagate",
      safe_div(PERFBENCH_COUNTER(core, kPropagateExtraNodes), prop_calls),
      "nodes", n(prop_calls));
  add("core.nil_refreshes_per_update",
      per_update(PERFBENCH_COUNTER(core, kNilRefreshes)), "count", nbu);
  add("core.refresh_cas_per_update", per_update(cas), "count", nbu);
  add("core.refresh_cas_fail_frac",
      safe_div(PERFBENCH_COUNTER(core, kRefreshCasFail), cas), "frac", n(cas));
  add("core.delegations_per_update", per_update(dels), "count", nbu);
  add("core.delegation_timeout_frac",
      safe_div(PERFBENCH_COUNTER(core, kDelegationTimeouts), dels), "frac",
      n(dels));
  add("core.rank_ns", rank_ns, "ns", kKernelIters);
  add("core.select_ns", select_ns, "ns", kKernelIters);
  add("core.range_count_ns", range_ns, "ns", kKernelIters);
  add("chromatic.update_ns", ch_uh.mean(), "ns", ch_uh.count(), chrom_absent);
  add("chromatic.find_ns", ch_fh.mean(), "ns", ch_fh.count(), chrom_absent);
  add("chromatic.rebalance_steps_per_update",
      per_update(PERFBENCH_COUNTER(core, kRebalanceSteps)), "count", nbu);
  add("llxscx.scx_per_update", per_update(scx), "count", nbu);
  add("llxscx.scx_fail_frac",
      safe_div(PERFBENCH_COUNTER(core, kScxFailures), scx), "frac", n(scx));
  // reclamation
  add("reclamation.guard_ns", guard_ns, "ns", kGuardIters);
  add("reclamation.limbo_after_run", limbo, "objects", 1);
  double pressure = 0;
  for (const Group* g : {&tree, &forest, &ladder}) {
    for (const auto& [name, r] : g->runs) {
      pressure += PERFBENCH_COUNTER(r.counters, kEbrPressureEvents);
    }
  }
  add("reclamation.pressure_events", pressure, "count", 1);
  add("reclamation.rss_growth_mb.bat", tree.rss_growth_mb, "MiB", 1);
  add("reclamation.rss_growth_mb.forest", forest.rss_growth_mb, "MiB", 1);
  // bench / trace
  add("bench.gen_ns_per_op", gen_ns, "ns", kGenIters);
  const SubjectRun& bt = tree.get("bat.traced");
  add("trace.overhead_frac", 1.0 - mops_ratio(forest, "forest.traced", "forest"),
      "frac", ft.total.timed_ops);
  add("trace.overhead_frac.bat", 1.0 - mops_ratio(tree, "bat.traced", "bat"),
      "frac", bt.total.timed_ops);
  double root_ns = 0;
  for (const SubjectRun* r : {&bt, &ft}) {
    for (int s = kApiInsert; s <= kApiRangeAggregate; ++s) {
      root_ns += static_cast<double>(r->spans[s].total_ns);
    }
  }
  add("trace.span_coverage",
      safe_div(root_ns,
               1e9 * kWorkers * (bt.total.elapsed_s + ft.total.elapsed_s)),
      "frac", bt.total.timed_ops + ft.total.timed_ops);
  // ladder bases of the ratios above
  const auto base = [&](const Group& g, const std::string& name) {
    add("ladder." + name + ".mops", g.get(name).median_mops(), "Mops/s",
        g.get(name).total.timed_ops, !g.has(name));
  };
  base(tree, "bat");
  base(tree, "ChromaticSet");
  base(forest, "forest");
  base(ladder, "Sharded16-BAT");
  base(ladder, "Sharded16-Combined-BAT");
  base(ladder, "Sharded16-Combined-BAT-RC");
  return attempted;
}

std::string write_spans(const Args& a, const std::vector<RawTrace>& raw) {
  const std::string path = a.out_dir + "/spans-" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  std::fprintf(f, "subject,worker,index,parent,op_id,span,start_ns,end_ns\n");
  for (const RawTrace& t : raw) {
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const RawSpan& s = t.spans[i];
      std::fprintf(f, "%s,%d,%zu,%d,%llu,%s,%llu,%llu\n", t.subject.c_str(),
                   t.worker, i, s.parent,
                   static_cast<unsigned long long>(s.op_id), span_name(s.name),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  std::fclose(f);
  return path;
}

// ---------------------------------------------------------------------------
// Self-test: the generator's realised mix matches every workload's spec,
// and the gate catches a planted fault.

bool self_test_generator(std::uint64_t seed) {
  bool ok = true;
  constexpr int kN = 1 << 20;
  for (const Workload& w : all_workloads()) {
    const WorkloadInputs in(w, seed);
    Generator g(in, seed, 0);
    std::array<std::uint64_t, kNumOpKinds> kinds{};
    bool in_range = true;
    for (int i = 0; i < kN; ++i) {
      const Op op = g.next();
      ++kinds[static_cast<int>(op.kind)];
      if (op.kind == OpKind::kSelect) {
        in_range &= op.a >= 1 && op.a <= in.select_max;
      } else {
        in_range &= op.a >= 0 && op.a < w.keyspace;
      }
      if (op.kind == OpKind::kRangeCount ||
          op.kind == OpKind::kRangeAggregate) {
        in_range &= op.b - op.a + 1 == w.range_width && op.b < w.keyspace;
      }
    }
    const auto pct = [&](std::uint64_t c) { return 100.0 * c / kN; };
    std::uint64_t q = 0;
    for (int k = 3; k < kNumOpKinds; ++k) q += kinds[k];
    const double want[4] = {double(w.insert_pct), double(w.erase_pct),
                            double(w.find_pct), double(w.query_pct)};
    const double got[4] = {pct(kinds[0]), pct(kinds[1]), pct(kinds[2]),
                           pct(q)};
    bool mix_ok = in_range;
    for (int c = 0; c < 4; ++c) mix_ok &= std::abs(got[c] - want[c]) < 0.5;
    int wsum = 0;
    for (int x : w.query_weights) wsum += x;
    for (int k = 0; k < 4; ++k) {
      const double share = 100.0 * safe_div(double(kinds[3 + k]), double(q));
      mix_ok &= std::abs(share - 100.0 * w.query_weights[k] / wsum) < 1.5;
    }
    if (w.fixed_windows > 0) {
      mix_ok &= static_cast<int>(in.windows.size()) == w.fixed_windows;
    }
    std::printf(
        "%s generator mix %s: insert %.2f erase %.2f find %.2f query %.2f\n",
        mix_ok ? "PASS" : "FAIL", w.name.c_str(), got[0], got[1], got[2],
        got[3]);
    ok &= mix_ok;
  }
  return ok;
}

std::uint64_t gate_failures(const Workload& w, std::uint64_t seed,
                            std::uint64_t drop_every) {
  const WorkloadInputs in(w, seed);
  const std::vector<Key> keys = prefill_keys(w, seed);
  Failures fails;
  auto s = build(kBatName, w, keys, fails);
  Ledger ledger(w, keys);
  run_phase({{"self-test", s.get(), &ledger, false, drop_every}},
            {&in, seed, 0.05, 0.3, 1}, fails);
  verify(*s, ledger, w, seed, "self-test", fails);
  return fails.count;
}

bool self_test_gate(std::uint64_t seed) {
  constexpr std::uint64_t kDropEvery = 64;
  Workload small = *find_workload("update_uniform");
  small.keyspace = 1 << 14;
  small.prefill = small.keyspace / 2;
  const std::uint64_t clean = gate_failures(small, seed, 0);
  const std::uint64_t planted = gate_failures(small, seed, kDropEvery);
  std::printf("%s gate passes the unmodified subject (failed %llu)\n",
              clean == 0 ? "PASS" : "FAIL",
              static_cast<unsigned long long>(clean));
  std::printf("%s gate catches 1-in-%llu dropped inserts (failed %llu)\n",
              planted > 0 ? "PASS" : "FAIL",
              static_cast<unsigned long long>(kDropEvery),
              static_cast<unsigned long long>(planted));
  return clean == 0 && planted > 0;
}

int usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA] "
               "[--git-dirty 0|1] [--source-hash HEX]\n       perfbench "
               "--self-test [--seed N]\n",
               msg.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + f);
    const std::string v = argv[++i];
    if (f == "--workload") {
      a.workload = v;
    } else if (f == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (f == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (f == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (f == "--out-dir") {
      a.out_dir = v;
    } else if (f == "--git-sha") {
      a.git_sha = v;
    } else if (f == "--git-dirty") {
      a.git_dirty = v;
    } else if (f == "--source-hash") {
      a.source_hash = v;
    } else {
      return usage("unknown flag " + f);
    }
  }
  if (a.self_test) {
    const bool ok = self_test_generator(a.seed) && self_test_gate(a.seed);
    std::printf("self-test %s\n", ok ? "PASSED" : "FAILED");
    return ok ? 0 : 1;
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) return usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds >= 1) || a.seconds > 600) {
    return usage("--seconds must be in [1, 600]");
  }
  if (a.trace != 0 && a.trace != 1) return usage("--trace must be 0 or 1");

  const WorkloadInputs in(*w, a.seed);
  const std::vector<Key> keys = prefill_keys(*w, a.seed);
  std::vector<Metric> metrics;
  Failures fails;
  std::uint64_t attempted = 0;
  std::string spans_file;
  if (a.trace == 0) {
    attempted = run_untraced(a, in, keys, metrics, fails);
  } else {
    std::vector<RawTrace> raw;
    attempted = run_traced(a, in, keys, metrics, fails, raw);
    spans_file = write_spans(a, raw);
  }
  report(a, metrics, fails, std::max<std::uint64_t>(attempted, 1), spans_file);
  return fails.count == 0 ? 0 : 1;
}
