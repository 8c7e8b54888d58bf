// tglink_bench: the single-process benchmark harness for tglink.
//
//   tglink_bench --workload NAME --seed N --seconds S --trace 0|1
//
// Every workload links the rawtenstall scenario's 1871->1881 pair at scale
// 0.25, generated from --seed. A run sets up (generation, gold resolution,
// one untimed warm-up operation), then repeats the workload's operation for
// --seconds, checking each output's fingerprint against the warm-up's.
//
// --trace 0 prints the end-to-end metrics: the median wall time of one
// operation, set-up time, peak RSS, quality under the paper's protocol and
// the share of operations that succeeded.
//
// --trace 1 runs the same untimed-loop first (for the overhead base), then
// one traced pass that replays Algorithm 1 from the public entry points
// (enrich, PreMatcher, per-delta Cluster -> BuildAllSubgraphs ->
// SelectGroupLinks, context residual, global residual), runs
// AnalyzeEvolution, a separate GenerateCandidatePairs, CollectiveLink and
// GraphSimLink, and prints per-layer times, counters and allocations. Only
// this pass enables obs/memprof. The replayed mapping must equal
// LinkCensusPair's fingerprint; trace.replay_match reports whether it did.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// perfbench/README.md documents the workloads and the layer map.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "tglink/baselines/collective.h"
#include "tglink/baselines/graphsim.h"
#include "tglink/blocking/blocking.h"
#include "tglink/eval/gold.h"
#include "tglink/eval/metrics.h"
#include "tglink/evolution/patterns.h"
#include "tglink/graph/enrichment.h"
#include "tglink/linkage/config.h"
#include "tglink/linkage/iterative.h"
#include "tglink/linkage/prematching.h"
#include "tglink/linkage/residual.h"
#include "tglink/linkage/selection.h"
#include "tglink/linkage/subgraph.h"
#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/synth/generator.h"
#include "tglink/synth/scenario.h"
#include "tglink/util/parallel.h"
#include "tglink/util/timer.h"

namespace {

using namespace tglink;

constexpr char kScenario[] = "rawtenstall";
constexpr double kScale = 0.25;
constexpr int kPairIndex = 2;  // 1871 -> 1881 (the series starts in 1851)
// Set-up (generation, gold, warm-up operation) is measured this many times,
// each in a fresh process, and setup_s is the median.
constexpr int kSetupRepeats = 3;
// The timed loop runs at least this many operations, however short
// --seconds is, so link_s is always a median.
constexpr int kMinTimedOps = 3;
// Quality floors under the paper's protocol. Every seed tried scores well
// above them; an output below is wrong even when it is reproducible.
constexpr double kMinItersubF1 = 0.90;
constexpr double kMinBaselineF1 = 0.80;

struct Workload {
  const char* name;
  int threads;
  bool baselines;  // CollectiveLink + GraphSimLink instead of iter-sub
};

constexpr Workload kWorkloads[] = {
    {"itersub_serial", 1, false},
    {"itersub_threads4", 4, false},
    {"baselines", 1, true},
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  // Self-test hook: flips the fingerprint of the K-th timed operation
  // (1-based) so the harness must count it as failed.
  int tamper_op = 0;
  // Where the traced run writes its spans (Chrome trace-event JSON).
  std::string spans_out;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "tglink_bench: %s\nusage: tglink_bench --workload "
               "itersub_serial|itersub_threads4|baselines --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n",
               message);
  std::exit(2);
}

uint64_t ParseUint(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (text[0] == '-' || end == text || *end != '\0' || errno == ERANGE) {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return value;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) options.workload = &w;
      }
      if (options.workload == nullptr) Usage("unknown workload");
    } else if (flag == "--seed") {
      options.seed = ParseUint("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      errno = 0;
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || errno == ERANGE ||
          !(options.seconds > 0.0)) {
        Usage("bad value for --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("bad value for --trace");
      }
      options.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--tamper-op") {
      options.tamper_op = static_cast<int>(ParseUint("--tamper-op", value));
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload == nullptr || !have_seed || !have_seconds ||
      !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return options;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------- inputs

struct Inputs {
  SyntheticPair pair;
  ResolvedGold verified;  // the paper's expert-reference analogue
};

GeneratorConfig MakeGeneratorConfig(uint64_t seed) {
  Result<Scenario> scenario = ResolveScenario(kScenario);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario %s: %s\n", kScenario,
                 scenario.status().ToString().c_str());
    std::exit(1);
  }
  GeneratorConfig gen = scenario.value().config;
  gen.seed = seed;
  gen.scale = kScale;
  gen.num_censuses = kPairIndex + 2;
  return gen;
}

Inputs MakeInputs(const GeneratorConfig& gen) {
  Inputs in;
  in.pair = GenerateCensusPair(gen, kPairIndex);
  Result<ResolvedGold> full =
      ResolveGold(in.pair.gold, in.pair.old_dataset, in.pair.new_dataset);
  if (!full.ok()) {
    std::fprintf(stderr, "gold resolution failed: %s\n",
                 full.status().ToString().c_str());
    std::exit(1);
  }
  in.verified = SelectVerifiedSubset(full.value(), in.pair.old_dataset,
                                     in.pair.new_dataset);
  return in;
}

// ------------------------------------------------------------- outputs

// FNV-1a 64 over the raw bytes of trivially copyable values.
class Fingerprint {
 public:
  template <typename T>
  void Add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) hash_ = (hash_ ^ b) * 1099511628211ULL;
  }
  template <typename A, typename B>
  void Add(const std::pair<A, B>& value) {
    Add(value.first);
    Add(value.second);
  }
  template <typename T>
  void AddAll(const std::vector<T>& values) {
    Add(values.size());
    for (const T& v : values) Add(v);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

uint64_t FingerprintOf(const LinkageResult& result) {
  Fingerprint fp;
  fp.AddAll(result.record_mapping.links());
  fp.AddAll(result.group_mapping.links());
  fp.Add(result.iterations.size());
  for (const IterationStats& s : result.iterations) {
    fp.Add(s.delta);
    fp.Add(s.scored_pairs);
    fp.Add(s.candidate_subgraphs);
    fp.Add(s.accepted_subgraphs);
    fp.Add(s.new_group_links);
    fp.Add(s.new_record_links);
  }
  fp.Add(result.provenance.size());
  for (const LinkProvenance& p : result.provenance) {
    fp.Add(p.phase);
    fp.Add(p.delta);
  }
  fp.Add(result.context_record_links);
  fp.Add(result.residual_record_links);
  return fp.value();
}

struct BaselineResult {
  RecordMapping cl;
  GraphSimResult graphsim;
};

uint64_t FingerprintOf(const BaselineResult& result) {
  Fingerprint fp;
  fp.AddAll(result.cl.links());
  fp.AddAll(result.graphsim.record_mapping.links());
  fp.AddAll(result.graphsim.group_mapping.links());
  return fp.value();
}

struct Quality {
  double record_f1 = 0.0;
  double group_f1 = 0.0;
};

// F1 under the paper's protocol (verified household subset, universe
// restriction, heavy group links), as bench::EvaluatePaperProtocol applies
// it. On the baselines workload the record mapping is CL's and the group
// mapping GraphSim's, the two the paper compares (Tables 6 and 7).
Quality PaperQuality(const RecordMapping& records, const GroupMapping& groups,
                     const RecordMapping& group_records, const Inputs& in) {
  const GroupMapping heavy = HeavyGroupLinks(
      groups, group_records, in.pair.old_dataset, in.pair.new_dataset);
  Quality q;
  q.record_f1 = EvaluateRecordMapping(records, in.verified,
                                      /*restrict_to_gold_universe=*/true)
                    .f_measure();
  q.group_f1 = EvaluateGroupMapping(heavy, in.verified,
                                    /*restrict_to_gold_universe=*/true)
                   .f_measure();
  return q;
}

// ----------------------------------------------------------- operations

CollectiveConfig MakeCollectiveConfig() {
  CollectiveConfig config;
  config.sim_func = configs::Omega2();
  return config;
}

GraphSimConfig MakeGraphSimConfig() {
  GraphSimConfig config;
  config.sim_func = configs::Omega2();
  return config;
}

// One timed operation: its wall seconds, output fingerprint and (when
// asked for) quality.
struct OpOutcome {
  double seconds = 0.0;
  uint64_t fingerprint = 0;
  Quality quality;
};

OpOutcome RunOperation(const Workload& workload, const Inputs& in,
                       bool with_quality) {
  const CensusDataset& old_ds = in.pair.old_dataset;
  const CensusDataset& new_ds = in.pair.new_dataset;
  OpOutcome out;
  if (workload.baselines) {
    const CollectiveConfig cl_config = MakeCollectiveConfig();
    const GraphSimConfig gs_config = MakeGraphSimConfig();
    const Timer timer;
    BaselineResult result;
    result.cl = CollectiveLink(old_ds, new_ds, cl_config);
    result.graphsim = GraphSimLink(old_ds, new_ds, gs_config);
    out.seconds = timer.ElapsedSeconds();
    out.fingerprint = FingerprintOf(result);
    if (with_quality) {
      out.quality = PaperQuality(result.cl, result.graphsim.group_mapping,
                                 result.graphsim.record_mapping, in);
    }
  } else {
    const LinkageConfig config = configs::DefaultConfig();
    const Timer timer;
    const LinkageResult result = LinkCensusPair(old_ds, new_ds, config);
    out.seconds = timer.ElapsedSeconds();
    out.fingerprint = FingerprintOf(result);
    if (with_quality) {
      out.quality = PaperQuality(result.record_mapping, result.group_mapping,
                                 result.record_mapping, in);
    }
  }
  return out;
}

// --------------------------------------------------------------- tracing

std::map<std::string, uint64_t> CounterValues() {
  std::map<std::string, uint64_t> values;
  for (const obs::MetricsSnapshot::CounterValue& c :
       obs::GlobalMetrics().Snapshot().counters) {
    values[c.name] = c.value;
  }
  return values;
}

// Per-layer accumulation of spans recorded around public entry points.
// Each Measure() call is one span: wall time, allocation totals and the
// deltas of every obs counter across the call.
class LayerTrace {
 public:
  struct Layer {
    double seconds = 0.0;
    uint64_t alloc_calls = 0;
    uint64_t alloc_bytes = 0;
    std::map<std::string, uint64_t> counters;
  };

  LayerTrace() : origin_(Clock::now()) {}

  template <typename Fn>
  void Measure(const std::string& layer, Fn&& fn) {
    const int parent = open_.empty() ? -1 : open_.back();
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({layer, parent, Micros(), 0.0});
    open_.push_back(index);
    const std::map<std::string, uint64_t> counters_before = CounterValues();
    const obs::AllocTotals alloc_before = obs::GlobalAllocTotals();
    const Timer timer;
    fn();
    const double seconds = timer.ElapsedSeconds();
    const obs::AllocTotals alloc_after = obs::GlobalAllocTotals();
    const std::map<std::string, uint64_t> counters_after = CounterValues();
    open_.pop_back();
    spans_[index].end_us = Micros();

    Layer& l = layers_[layer];
    l.seconds += seconds;
    l.alloc_calls += alloc_after.alloc_calls - alloc_before.alloc_calls;
    l.alloc_bytes += alloc_after.bytes_allocated - alloc_before.bytes_allocated;
    for (const auto& [name, value] : counters_after) {
      const auto it = counters_before.find(name);
      const uint64_t before =
          it == counters_before.end() ? 0 : it->second;
      l.counters[name] += value - before;
    }
  }

  const Layer& layer(const std::string& name) const {
    static const Layer kEmpty;
    const auto it = layers_.find(name);
    return it == layers_.end() ? kEmpty : it->second;
  }

  uint64_t counter(const std::string& layer_name,
                   const std::string& counter_name) const {
    const Layer& l = layer(layer_name);
    const auto it = l.counters.find(counter_name);
    return it == l.counters.end() ? 0 : it->second;
  }

  // Chrome trace-event JSON ("X" events; args.parent names the causing
  // span). All spans belong to one traced pass, so they share a pid/tid.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                   "\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                   s.end_us - s.start_us, i, s.parent);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    std::string name;
    int parent;
    double start_us;
    double end_us;
  };

  double Micros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, Layer> layers_;
};

// LinkCensusPair, step by step, with a span around every layer call. Must
// stay in step with src/tglink/linkage/iterative.cc; the traced run checks
// that it does by comparing fingerprints.
LinkageResult ReplayLinkCensusPair(const CensusDataset& old_ds,
                                   const CensusDataset& new_ds,
                                   const LinkageConfig& config,
                                   LayerTrace* trace) {
  if (!config.enrich_groups) {
    throw std::runtime_error("replay supports enrich_groups=true only");
  }
  LinkageResult result;
  result.record_mapping =
      RecordMapping(old_ds.num_records(), new_ds.num_records());

  std::vector<HouseholdGraph> old_graphs;
  std::vector<HouseholdGraph> new_graphs;
  trace->Measure("graph.enrich", [&] {
    old_graphs = EnrichAllHouseholds(old_ds);
    new_graphs = EnrichAllHouseholds(new_ds);
  });

  SimilarityFunction sim_func = config.sim_func;
  sim_func.set_year_gap(new_ds.year() - old_ds.year());
  std::optional<PreMatcher> prematcher;
  trace->Measure("linkage.prematch.build", [&] {
    prematcher.emplace(old_ds, new_ds, sim_func, config.blocking,
                       config.delta_low);
  });

  std::vector<bool> active_old(old_ds.num_records(), true);
  std::vector<bool> active_new(new_ds.num_records(), true);
  double delta = config.delta_high;
  while (delta + 1e-9 >= config.delta_low) {
    Clustering clustering;
    trace->Measure("linkage.cluster", [&] {
      clustering = prematcher->Cluster(delta, active_old, active_new);
    });
    std::vector<GroupPairSubgraph> subgraphs;
    trace->Measure("linkage.subgraph.build_score", [&] {
      subgraphs = BuildAllSubgraphs(old_ds, new_ds, old_graphs, new_graphs,
                                    clustering, *prematcher, config, delta);
    });

    IterationStats stats;
    stats.delta = delta;
    stats.scored_pairs =
        prematcher->CountPairsAtDelta(delta, active_old, active_new);
    stats.candidate_subgraphs = subgraphs.size();
    SelectionResult selection;
    trace->Measure("linkage.selection", [&] {
      selection = SelectGroupLinks(std::move(subgraphs), &result.group_mapping,
                                   &result.record_mapping, &active_old,
                                   &active_new);
    });
    result.provenance.resize(result.record_mapping.size(),
                             {LinkPhase::kSubgraph, delta});
    stats.accepted_subgraphs = selection.accepted_subgraphs;
    stats.new_group_links = selection.new_group_links;
    stats.new_record_links = selection.new_record_links;
    result.iterations.push_back(stats);
    if (selection.accepted_subgraphs == 0) break;
    delta -= config.delta_step;
  }

  SimilarityFunction sim_func_rem = config.sim_func_rem;
  sim_func_rem.set_year_gap(new_ds.year() - old_ds.year());
  if (config.context_residual) {
    trace->Measure("linkage.residual.context", [&] {
      result.context_record_links = MatchWithinLinkedHouseholds(
          old_ds, new_ds, sim_func_rem, config.context_residual_threshold,
          result.group_mapping, &result.record_mapping, &active_old,
          &active_new);
    });
    result.provenance.resize(
        result.record_mapping.size(),
        {LinkPhase::kContextResidual, config.context_residual_threshold});
  }
  trace->Measure("linkage.residual.global", [&] {
    result.residual_record_links = MatchResidualRecords(
        old_ds, new_ds, sim_func_rem, config.blocking, &result.record_mapping,
        &result.group_mapping, &active_old, &active_new);
  });
  result.provenance.resize(
      result.record_mapping.size(),
      {LinkPhase::kGlobalResidual, sim_func_rem.threshold()});
  return result;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

constexpr double kMiB = 1024.0 * 1024.0;

// Layers whose allocation totals the traced run reports, in output order.
constexpr const char* kAllocLayers[] = {
    "graph.enrich",
    "blocking.candidates",
    "linkage.prematch.build",
    "linkage.cluster",
    "linkage.subgraph.build_score",
    "linkage.selection",
    "linkage.residual.context",
    "linkage.residual.global",
    "evolution.analyze",
    "baselines.collective",
    "baselines.graphsim",
};

// The traced pass. Runs every layer so every per-layer metric exists on
// every workload; the workload's own operation goes first and supplies the
// similarity counters and the traced total.
std::vector<Metric> TracedPass(const Workload& workload, const Inputs& in,
                               uint64_t reference_fp, double untraced_op_s,
                               const std::string& spans_out) {
  const CensusDataset& old_ds = in.pair.old_dataset;
  const CensusDataset& new_ds = in.pair.new_dataset;
  const LinkageConfig config = configs::DefaultConfig();
  obs::SetMemProfEnabled(true);
  LayerTrace trace;

  LinkageResult replayed;
  BaselineResult baselines;
  const auto run_itersub = [&] {
    trace.Measure("op.itersub", [&] {
      replayed = ReplayLinkCensusPair(old_ds, new_ds, config, &trace);
    });
  };
  const auto run_baselines = [&] {
    trace.Measure("op.baselines", [&] {
      trace.Measure("baselines.collective", [&] {
        baselines.cl = CollectiveLink(old_ds, new_ds, MakeCollectiveConfig());
      });
      trace.Measure("baselines.graphsim", [&] {
        baselines.graphsim =
            GraphSimLink(old_ds, new_ds, MakeGraphSimConfig());
      });
    });
  };
  if (workload.baselines) {
    run_baselines();
    run_itersub();
  } else {
    run_itersub();
    run_baselines();
  }
  trace.Measure("evolution.analyze", [&] {
    (void)AnalyzeEvolution(old_ds, new_ds, replayed.record_mapping,
                           replayed.group_mapping);
  });
  size_t candidate_pairs = 0;
  trace.Measure("blocking.candidates", [&] {
    candidate_pairs =
        GenerateCandidatePairs(old_ds, new_ds, config.blocking).size();
  });
  obs::SetMemProfEnabled(false);

  const char* op_layer = workload.baselines ? "op.baselines" : "op.itersub";
  const uint64_t traced_fp = workload.baselines ? FingerprintOf(baselines)
                                                : FingerprintOf(replayed);
  const bool replay_match = traced_fp == reference_fp;
  if (!replay_match) {
    std::fprintf(stderr,
                 "tglink_bench: traced %s output differs from the untraced "
                 "operation; per-layer numbers of this run are invalid\n",
                 op_layer);
  }
  if (!spans_out.empty() && !trace.WriteChromeTrace(spans_out)) {
    std::fprintf(stderr, "tglink_bench: cannot write %s\n",
                 spans_out.c_str());
  }

  const auto secs = [&](const char* layer) {
    return trace.layer(layer).seconds;
  };
  const auto count = [&](const char* layer, const char* counter) {
    return static_cast<double>(trace.counter(layer, counter));
  };
  const double scored =
      count("linkage.prematch.build", "prematch.pairs_scored");
  const double kept = count("linkage.prematch.build", "prematch.pairs_kept");
  const double group_pairs = count("linkage.subgraph.build_score",
                                   "subgraph.candidate_group_pairs");
  const double built = count("linkage.subgraph.build_score", "subgraph.built");
  const double accepted =
      count("linkage.selection", "selection.accepted_subgraphs");
  const double screened = count(op_layer, "simkernel.screened");
  const double pruned = count(op_layer, "simkernel.pruned_by_coverage") +
                        count(op_layer, "simkernel.pruned_by_length") +
                        count(op_layer, "simkernel.pruned_by_profile") +
                        count(op_layer, "simkernel.pruned_by_cutoff");

  std::vector<Metric> m = {
      {"graph.enrich_s", secs("graph.enrich"), "s"},
      {"blocking.candidates_s", secs("blocking.candidates"), "s"},
      {"blocking.candidate_pairs", static_cast<double>(candidate_pairs),
       "count"},
      {"linkage.prematch.build_s", secs("linkage.prematch.build"), "s"},
      {"linkage.prematch.kept_pairs", kept, "count"},
      {"linkage.prematch.keep_ratio", Ratio(kept, scored), "ratio"},
      {"similarity.agg_calls", count(op_layer, "similarity.agg_calls"),
       "count"},
      {"similarity.kernel_screened", screened, "count"},
      {"similarity.prune_ratio", Ratio(pruned, screened), "ratio"},
      {"linkage.cluster_s", secs("linkage.cluster"), "s"},
      {"linkage.subgraph.build_score_s", secs("linkage.subgraph.build_score"),
       "s"},
      {"linkage.subgraph.candidate_group_pairs", group_pairs, "count"},
      {"linkage.subgraph.built", built, "count"},
      {"linkage.subgraph.yield", Ratio(built, group_pairs), "ratio"},
      {"linkage.subgraph.miss_lookups",
       count("linkage.subgraph.build_score", "simcache.prematch_miss"),
       "count"},
      {"linkage.selection_s", secs("linkage.selection"), "s"},
      {"linkage.selection.accepted", accepted, "count"},
      {"linkage.selection.accept_ratio", Ratio(accepted, built), "ratio"},
      {"linkage.residual.context_s", secs("linkage.residual.context"), "s"},
      {"linkage.residual.global_s", secs("linkage.residual.global"), "s"},
      {"linkage.residual.global_candidates",
       count("linkage.residual.global", "blocking.candidate_pairs"), "count"},
      {"linkage.rounds", static_cast<double>(replayed.iterations.size()),
       "count"},
      {"evolution.analyze_s", secs("evolution.analyze"), "s"},
      {"baselines.collective_s", secs("baselines.collective"), "s"},
      {"baselines.graphsim_s", secs("baselines.graphsim"), "s"},
  };
  for (const char* layer : kAllocLayers) {
    const LayerTrace::Layer& l = trace.layer(layer);
    m.push_back({std::string(layer) + ".alloc_calls",
                 static_cast<double>(l.alloc_calls), "count"});
    m.push_back({std::string(layer) + ".alloc_mb",
                 static_cast<double>(l.alloc_bytes) / kMiB, "MiB"});
  }
  m.push_back({"trace.overhead_ratio", Ratio(secs(op_layer), untraced_op_s),
               "ratio"});
  m.push_back({"trace.replay_match", replay_match ? 1.0 : 0.0, "count"});
  return m;
}

// One set-up measured in a forked child: its wall seconds (negative when
// it failed) and the fingerprint of its warm-up operation.
struct ColdSetup {
  double seconds = -1.0;
  uint64_t fingerprint = 0;
};

// Must run before this process starts any thread: fork() copies only the
// calling thread.
ColdSetup ForkedSetup(const Workload& workload, const GeneratorConfig& gen) {
  ColdSetup result;
  int fds[2];
  if (pipe(fds) != 0) return result;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return result;
  }
  if (pid == 0) {
    close(fds[0]);
    ColdSetup child;
    try {
      const Timer timer;
      const Inputs in = MakeInputs(gen);
      SetParallelThreadCount(workload.threads);
      child.fingerprint = RunOperation(workload, in, false).fingerprint;
      child.seconds = timer.ElapsedSeconds();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tglink_bench: forked set-up threw: %s\n",
                   e.what());
    }
    const bool sent = write(fds[1], &child, sizeof child) == sizeof child;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  ColdSetup received;
  if (read(fds[0], &received, sizeof received) == sizeof received) {
    result = received;
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) result.seconds = -1.0;
  return result;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;  // KiB
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  const Workload& workload = *options.workload;
  obs::SetMemProfEnabled(false);

  // Set-up: generation and gold resolution, then the warm-up operation,
  // whose output is the run's reference. kSetupRepeats - 1 of the set-ups
  // run in forked children before this process starts any thread, so that
  // every sample pays a fresh process's first-call costs.
  const GeneratorConfig gen = MakeGeneratorConfig(options.seed);
  std::vector<ColdSetup> cold;
  for (int i = 1; i < kSetupRepeats; ++i) {
    cold.push_back(ForkedSetup(workload, gen));
  }
  const Timer setup_timer;
  const Inputs in = MakeInputs(gen);
  SetParallelThreadCount(workload.threads);
  const OpOutcome warmup = RunOperation(workload, in, true);
  std::vector<double> setup_samples = {setup_timer.ElapsedSeconds()};
  std::printf("pair %d->%d, seed %llu: %zu/%zu records, workload %s, "
              "%d thread(s)\n",
              in.pair.old_dataset.year(), in.pair.new_dataset.year(),
              static_cast<unsigned long long>(options.seed),
              in.pair.old_dataset.num_records(),
              in.pair.new_dataset.num_records(), workload.name,
              workload.threads);

  size_t attempted = 0;
  size_t failed = 0;
  const auto check = [&](const char* what, uint64_t got, uint64_t want) {
    ++attempted;
    if (got == want) return;
    ++failed;
    std::fprintf(stderr, "tglink_bench: %s fingerprint %016llx != %016llx\n",
                 what, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
  };

  // The 4-thread output must equal the serial one: the reference for
  // itersub_threads4 is a serial operation, outside set-up and timing.
  uint64_t reference = warmup.fingerprint;
  if (workload.threads != 1) {
    SetParallelThreadCount(1);
    reference = RunOperation(workload, in, false).fingerprint;
    SetParallelThreadCount(workload.threads);
    check("warm-up vs serial", warmup.fingerprint, reference);
  }
  for (const ColdSetup& c : cold) {
    if (c.seconds < 0.0) {
      ++attempted;
      ++failed;
      std::fprintf(stderr, "tglink_bench: forked set-up failed\n");
      continue;
    }
    check("forked set-up", c.fingerprint, reference);
    setup_samples.push_back(c.seconds);
  }
  const double setup_s = Median(setup_samples);
  std::printf("setup_s: median %.4f s of %zu set-ups (warm-up operation "
              "%.4f s); set-ups:",
              setup_s, setup_samples.size(), warmup.seconds);
  for (double t : setup_samples) std::printf(" %.4f", t);
  std::printf("\n");

  // The measured loop: repeat the operation for --seconds.
  std::vector<double> op_seconds;
  const Timer loop;
  for (int op = 1;
       op <= kMinTimedOps || loop.ElapsedSeconds() < options.seconds; ++op) {
    try {
      OpOutcome out = RunOperation(workload, in, false);
      if (op == options.tamper_op) out.fingerprint ^= 1;
      op_seconds.push_back(out.seconds);
      check("timed operation", out.fingerprint, reference);
    } catch (const std::exception& e) {
      ++attempted;
      ++failed;
      std::fprintf(stderr, "tglink_bench: operation %d threw: %s\n", op,
                   e.what());
    }
  }
  if (op_seconds.empty()) op_seconds.push_back(loop.ElapsedSeconds());
  const double link_s = Median(op_seconds);
  std::printf("link_s: median %.4f s over %zu samples (min %.4f, max %.4f)\n",
              link_s, op_seconds.size(),
              *std::min_element(op_seconds.begin(), op_seconds.end()),
              *std::max_element(op_seconds.begin(), op_seconds.end()));
  std::printf("samples:");
  for (double t : op_seconds) std::printf(" %.4f", t);
  std::printf("\n");

  const Quality& q = warmup.quality;
  const double floor = workload.baselines ? kMinBaselineF1 : kMinItersubF1;
  const bool quality_ok = q.record_f1 >= floor && q.group_f1 >= floor;
  if (!quality_ok) {
    std::fprintf(stderr,
                 "tglink_bench: quality below floor %.2f: record F1 %.4f, "
                 "group F1 %.4f\n",
                 floor, q.record_f1, q.group_f1);
  }
  const bool correct = failed == 0 && quality_ok;

  if (options.trace) {
    std::vector<Metric> layers;
    try {
      layers = TracedPass(workload, in, reference, link_s, options.spans_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tglink_bench: traced pass threw: %s\n", e.what());
      return 1;
    }
    PrintResult(correct, attempted, failed, layers);
    return 0;
  }
  const double success = static_cast<double>(attempted - failed) / attempted;
  PrintResult(correct, attempted, failed,
              {
                  {"link_s", link_s, "s"},
                  {"setup_s", setup_s, "s"},
                  {"peak_rss_mb", PeakRssMiB(), "MiB"},
                  {"record_f1", q.record_f1, "ratio"},
                  {"group_f1", q.group_f1, "ratio"},
                  {"success_ratio", success, "ratio"},
              });
  return 0;
}
