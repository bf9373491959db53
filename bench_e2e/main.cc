// pam_e2e: the measuring half of the end-to-end benchmark; run.py builds
// it, generates the inputs and calls it.
//
//   pam_e2e oracle --db NAME=PATH --minsup C1,C2,.. --minconf F
//       Mines NAME with the independent oracle (oracle.h) at the lowest
//       support count and prints one line per support count:
//       "oracle NAME MINSUP ITEMSETS RULES ITEMSET_DIGEST RULE_DIGEST".
//
//   pam_e2e permute --in PATH --out PATH --seed N
//       Writes the transactions of PATH in a seeded order. Every seed gives
//       the same mining problem, so the work per job barely depends on the
//       seed, while each rank's slice of the data does. (Relabelling items
//       as well would change the hash-tree work per pass by up to 2x.)
//
//   pam_e2e mine --db PATH --oracle FILE --minsup C --minconf F
//                --jobs ALG:RANKS,... --seconds S --min-jobs N
//                --t0-ns NS --trace 0|1 --out-prefix PREFIX
//       Library path: loads PATH with pam::ReadBinary, then runs whole
//       rounds of the job list through MiningSession::Run until S seconds
//       of job time and N jobs have passed. Every rank runs one thread.
//
//   pam_e2e serve --requests FILE --oracle FILE --seconds S --min-jobs N
//                 --t0-ns NS --trace 0|1 --out-prefix PREFIX
//                 --datasets NAME=PATH,... -- PAM_SERVE_COMMAND...
//       Service path: spawns pam_serve --listen, opens kConnections
//       connections and runs whole rounds of the request list closed-loop
//       over loopback.
//
// Every job's output is compared with the oracle and property-checked
// outside the timed windows. The last stdout line is "RESULT {json}".

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "oracle.h"
#include "pam/api/session.h"
#include "pam/core/apriori_gen.h"
#include "pam/mp/payload.h"
#include "pam/obs/chrome_trace.h"
#include "pam/serve/net_server.h"
#include "pam/serve/protocol.h"
#include "pam/tdb/io.h"

extern char** environ;

namespace {

using pam_e2e::Itemset;
using pam_e2e::RuleRecord;
using Clock = std::chrono::steady_clock;

/// Client connections of the service path: one per core of the 4-core
/// host, so the client never asks for more concurrency than nproc.
constexpr int kConnections = 4;

// ---------------------------------------------------------------------------
// Small utilities

std::int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The live pam_serve child, killed on every fatal exit so none outlives
/// the benchmark.
std::atomic<pid_t> g_server_pid{-1};

[[noreturn]] void Fail(int code, const std::string& message) {
  std::fprintf(stderr, "pam_e2e: %s\n", message.c_str());
  const pid_t server = g_server_pid.exchange(-1);
  if (server > 0) {
    kill(server, SIGKILL);
    waitpid(server, nullptr, 0);
  }
  std::_Exit(code);
}

[[noreturn]] void Die(const std::string& message) { Fail(2, message); }

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::stringstream in(text);
  std::string part;
  while (std::getline(in, part, sep)) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

/// --key value flags; everything after a bare "--" is kept as `rest`.
struct Args {
  std::map<std::string, std::string> values;
  std::vector<std::string> rest;

  std::string Get(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) Die("missing --" + key);
    return it->second;
  }
  double Number(const std::string& key) const {
    return std::stod(Get(key));
  }
};

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--") {
      args.rest.assign(argv + i + 1, argv + argc);
      break;
    }
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) Die("bad argument " + arg);
    args.values[arg.substr(2)] = argv[++i];
  }
  return args;
}

/// Linear-interpolated percentile (q in [0, 1]) of unsorted samples.
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double v : samples) sum += v;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

/// CPU seconds (user + sys) of this process, all threads.
double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// CPU seconds (user + sys) of another process, from /proc/PID/stat.
double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) Die("cannot read /proc stat of server");
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0;
  double stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of a process, in MiB.
double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  Die("no VmHWM for " + pid);
}

/// Builds the RESULT object: {"attempted":..,"failed":..,"correct":..,
/// "metrics":{name:[value, unit],..}}.
class ResultWriter {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    metrics_ += (metrics_.empty() ? "" : ",") + std::string("\"") + name +
                "\":[" + buf + ",\"" + unit + "\"]";
  }
  std::string Json(std::size_t attempted, std::size_t failed,
                   bool correct) const {
    return "{\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(failed) +
           ",\"correct\":" + (correct ? "true" : "false") + ",\"metrics\":{" +
           metrics_ + "}}";
  }

 private:
  std::string metrics_;
};

// ---------------------------------------------------------------------------
// Output checking against the oracle

struct OracleEntry {
  std::uint64_t itemsets = 0;
  std::uint64_t rules = 0;
  std::uint64_t itemset_digest = 0;
  std::uint64_t rule_digest = 0;
};

/// (dataset name, minsup count) -> expected result summary.
using OracleTable = std::map<std::pair<std::string, std::uint64_t>, OracleEntry>;

OracleTable ReadOracle(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open oracle file " + path);
  OracleTable table;
  std::string tag;
  std::string name;
  std::uint64_t minsup = 0;
  OracleEntry entry;
  while (in >> tag >> name >> minsup >> entry.itemsets >> entry.rules >>
         std::hex >> entry.itemset_digest >> entry.rule_digest >> std::dec) {
    table[{name, minsup}] = entry;
  }
  return table;
}

std::vector<Itemset> ToItemsets(const pam::FrequentItemsets& frequent) {
  std::vector<Itemset> out;
  for (const pam::ItemsetCollection& level : frequent.levels) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      const pam::ItemSpan items = level.Get(i);
      out.push_back(Itemset{{items.begin(), items.end()}, level.count(i)});
    }
  }
  return out;
}

std::vector<RuleRecord> ToRules(const std::vector<pam::Rule>& rules) {
  std::vector<RuleRecord> out;
  out.reserve(rules.size());
  for (const pam::Rule& rule : rules) {
    RuleRecord record;
    record.antecedent = rule.antecedent;
    record.consequent = rule.consequent;
    record.joint_count = rule.joint_count;
    record.support = rule.support;
    record.confidence = rule.confidence;
    out.push_back(std::move(record));
  }
  return out;
}

/// Empty when the result matches the oracle and passes the property checks.
std::string Verify(const OracleTable& oracle, const std::string& dataset,
                   std::uint64_t minsup, std::size_t num_transactions,
                   double minconf, const pam::FrequentItemsets& frequent,
                   const std::vector<pam::Rule>& rules) {
  const auto it = oracle.find({dataset, minsup});
  if (it == oracle.end()) {
    return "no oracle entry for " + dataset + " at " + std::to_string(minsup);
  }
  std::vector<Itemset> itemsets = ToItemsets(frequent);
  std::vector<RuleRecord> records = ToRules(rules);
  pam_e2e::SortCanonical(&itemsets);
  pam_e2e::SortCanonical(&records);
  const OracleEntry& want = it->second;
  if (itemsets.size() != want.itemsets ||
      pam_e2e::DigestItemsets(itemsets) != want.itemset_digest) {
    return "itemsets differ from the oracle (" +
           std::to_string(itemsets.size()) + " vs " +
           std::to_string(want.itemsets) + ")";
  }
  if (records.size() != want.rules ||
      pam_e2e::DigestRules(records) != want.rule_digest) {
    return "rules differ from the oracle (" + std::to_string(records.size()) +
           " vs " + std::to_string(want.rules) + ")";
  }
  return pam_e2e::CheckProperties(itemsets, records, minsup,
                                  num_transactions, minconf);
}

// ---------------------------------------------------------------------------
// oracle subcommand

int RunOracle(const Args& args) {
  const std::vector<std::string> db = Split(args.Get("db"), '=');
  if (db.size() != 2) Die("--db wants NAME=PATH");
  std::vector<std::uint64_t> minsups;
  for (const std::string& s : Split(args.Get("minsup"), ',')) {
    minsups.push_back(std::stoull(s));
  }
  if (minsups.empty()) Die("--minsup is empty");
  const double minconf = args.Number("minconf");
  pam_e2e::Transactions transactions;
  std::string error;
  if (!pam_e2e::ReadTransactions(db[1], &transactions, &error)) Die(error);
  const std::uint64_t lowest = *std::min_element(minsups.begin(), minsups.end());
  const std::vector<Itemset> all = pam_e2e::MineEclat(transactions, lowest);
  const std::vector<RuleRecord> all_rules =
      pam_e2e::GenerateRules(all, transactions.size(), minconf);
  for (std::uint64_t minsup : minsups) {
    // Raising the support keeps exactly the itemsets (and the rules over
    // itemsets) whose count reaches it; antecedents count at least as much.
    std::vector<Itemset> itemsets;
    for (const Itemset& set : all) {
      if (set.count >= minsup) itemsets.push_back(set);
    }
    std::vector<RuleRecord> rules;
    for (const RuleRecord& rule : all_rules) {
      if (rule.joint_count >= minsup) rules.push_back(rule);
    }
    std::printf("oracle %s %llu %zu %zu %016llx %016llx\n", db[0].c_str(),
                static_cast<unsigned long long>(minsup), itemsets.size(),
                rules.size(),
                static_cast<unsigned long long>(pam_e2e::DigestItemsets(itemsets)),
                static_cast<unsigned long long>(pam_e2e::DigestRules(rules)));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// permute subcommand

/// Fisher-Yates with mt19937_64 draws, so a seed means the same
/// permutation on every standard library.
std::vector<std::uint32_t> Permutation(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::uint32_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng() % i]);
  }
  return perm;
}

int RunPermute(const Args& args) {
  pam_e2e::Transactions in;
  std::string error;
  if (!pam_e2e::ReadTransactions(args.Get("in"), &in, &error)) Die(error);
  std::mt19937_64 rng(std::stoull(args.Get("seed")));
  pam_e2e::Transactions out;
  out.items.reserve(in.items.size());
  out.offsets.reserve(in.offsets.size());
  std::vector<std::uint32_t> items;
  for (std::uint32_t t : Permutation(in.size(), rng)) {
    items.assign(in.items.begin() + static_cast<std::ptrdiff_t>(in.offsets[t]),
                 in.items.begin() + static_cast<std::ptrdiff_t>(in.offsets[t + 1]));
    out.Add(items);
  }
  if (!pam_e2e::WriteTransactions(args.Get("out"), out, &error)) Die(error);
  return 0;
}

// ---------------------------------------------------------------------------
// Span and counter aggregation for the traced (per-layer) runs

/// Per-layer sums over the traced jobs of one run.
class LayerTotals {
 public:
  void AddJob(const pam::MiningReport& report, double run_wall_ms,
              std::uint64_t payload_copies, double gen_ms) {
    ++jobs_;
    double run_span_ms = 0.0;
    std::map<int, std::vector<std::pair<double, double>>> rings;  // by rank
    std::map<int, std::uint64_t> rounds_per_rank;
    for (const pam::obs::SpanRecord& span : report.timeline.spans) {
      if (span.kind == pam::obs::SpanKind::kRingRound) {
        rings[span.rank].emplace_back(span.ts_us, span.ts_us + span.dur_us);
        ++rounds_per_rank[span.rank];
      }
    }
    for (auto& [rank, intervals] : rings) {
      std::sort(intervals.begin(), intervals.end());
    }
    double ring_total = 0.0;
    double subset_in_ring = 0.0;
    for (const pam::obs::SpanRecord& span : report.timeline.spans) {
      const double ms = span.dur_us / 1e3;
      switch (span.kind) {
        case pam::obs::SpanKind::kRun:
          run_span_ms += ms;
          break;
        case pam::obs::SpanKind::kTreeBuild:
          sums_["hashtree.build_ms"] += ms;
          break;
        case pam::obs::SpanKind::kSubsetCount: {
          sums_[span.pass_k == 2 ? "hashtree.pair_ms" : "hashtree.subset_ms"] +=
              ms;
          if (InsideRing(rings, span)) subset_in_ring += ms;
          break;
        }
        case pam::obs::SpanKind::kRingRound:
          ring_total += ms;
          break;
        case pam::obs::SpanKind::kCollective:
          sums_["mp.collective_ms"] += ms;
          break;
        case pam::obs::SpanKind::kAllToAll:
          sums_["mp.all_to_all_ms"] += ms;
          break;
        case pam::obs::SpanKind::kRuleGen:
          sums_["core.rulegen_ms"] += ms;
          break;
        default:
          break;
      }
    }
    sums_["mp.ring_wait_ms"] += ring_total - subset_in_ring;
    std::uint64_t max_rounds = 0;
    for (const auto& [rank, rounds] : rounds_per_rank) {
      max_rounds = std::max(max_rounds, rounds);
    }
    sums_["parallel.ring_rounds"] += static_cast<double>(max_rounds);
    sums_["api.overhead_ms"] += run_wall_ms - run_span_ms;
    sums_["mp.payload_copies"] += static_cast<double>(payload_copies);
    sums_["core.gen_ms"] += gen_ms;

    const pam::RunMetrics& metrics = report.metrics;
    double max_work = 0.0;
    double mean_work = 0.0;
    for (int p = 0; p < metrics.num_passes(); ++p) {
      const pam::SubsetStats stats = metrics.PassSubsetStats(p);
      sums_["hashtree.traversal_steps"] += static_cast<double>(stats.traversal_steps);
      sums_["hashtree.leaf_checks"] +=
          static_cast<double>(stats.leaf_candidates_checked);
      sums_["hashtree.leaf_visits"] +=
          static_cast<double>(stats.distinct_leaf_visits);
      if (!metrics.per_pass[p].empty()) {
        sums_["core.candidates"] +=
            static_cast<double>(metrics.per_pass[p][0].num_candidates_global);
      }
      for (const pam::PassMetrics& rank : metrics.per_pass[p]) {
        sums_["mp.bytes_sent"] += static_cast<double>(rank.data_bytes_sent);
        sums_["mp.messages_sent"] += static_cast<double>(rank.data_messages_sent);
        sums_["mp.reduction_words"] += static_cast<double>(rank.reduction_words);
      }
      const pam::LoadSummary balance = metrics.SubsetWorkBalance(p);
      max_work += balance.max;
      mean_work += balance.mean;
    }
    sums_["parallel.imbalance"] += mean_work > 0 ? max_work / mean_work : 1.0;
  }

  /// Per-job mean of every summed layer metric.
  std::map<std::string, double> PerJob() const {
    std::map<std::string, double> out;
    for (const auto& [name, sum] : sums_) {
      out[name] = jobs_ == 0 ? 0.0 : sum / static_cast<double>(jobs_);
    }
    return out;
  }

 private:
  static bool InsideRing(
      const std::map<int, std::vector<std::pair<double, double>>>& rings,
      const pam::obs::SpanRecord& span) {
    const auto it = rings.find(span.rank);
    if (it == rings.end()) return false;
    const auto& intervals = it->second;
    auto pos = std::upper_bound(
        intervals.begin(), intervals.end(),
        std::make_pair(span.ts_us, 1e300));
    if (pos == intervals.begin()) return false;
    --pos;
    return span.ts_us >= pos->first &&
           span.ts_us + span.dur_us <= pos->second + 1e-3;
  }

  std::size_t jobs_ = 0;
  std::map<std::string, double> sums_;
};

/// Every per-layer metric name with its unit; a workload reports 0 for
/// the layers it cannot see (README.md lists which apply where).
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"hashtree.subset_ms", "ms"},        {"hashtree.traversal_steps", "count"},
    {"hashtree.leaf_checks", "count"},   {"hashtree.leaf_visits", "count"},
    {"hashtree.build_ms", "ms"},         {"hashtree.pair_ms", "ms"},
    {"core.gen_ms", "ms"},               {"core.candidates", "count"},
    {"core.rulegen_ms", "ms"},           {"mp.ring_wait_ms", "ms"},
    {"mp.collective_ms", "ms"},          {"mp.all_to_all_ms", "ms"},
    {"mp.bytes_sent", "bytes"},          {"mp.messages_sent", "count"},
    {"mp.reduction_words", "count"},     {"mp.payload_copies", "count"},
    {"parallel.imbalance", "ratio"},     {"parallel.ring_rounds", "count"},
    {"api.overhead_ms", "ms"},           {"tdb.load_ms", "ms"},
    {"serve.queue_ms_p50", "ms"},        {"serve.service_ms_p50", "ms"},
    {"serve.wire_ms_p50", "ms"},         {"serve.result_hits", "count"},
    {"serve.result_misses", "count"},    {"serve.result_duplicate_mines", "count"},
    {"serve.dataset_misses", "count"},   {"serve.dataset_evictions", "count"},
    {"serve.dataset_resident_mb", "MiB"}, {"serve.peak_queue_depth", "count"},
    {"serve.rank_seconds", "s"},         {"obs.trace_overhead_ms_per_job", "ms"},
    {"proc.peak_rss_mb", "MiB"},
};

void EmitLayers(const std::map<std::string, double>& values,
                const std::string& out_prefix, ResultWriter* result) {
  std::string json = "{\n";
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    const double value = it == values.end() ? 0.0 : it->second;
    result->Metric(name, value, unit);
    char line[160];
    std::snprintf(line, sizeof(line), "  \"%s\": {\"value\": %.9g, \"unit\": \"%s\"},\n",
                  name.c_str(), value, unit.c_str());
    json += line;
  }
  json.erase(json.size() - 2);  // trailing ",\n"
  json += "\n}\n";
  std::ofstream out(out_prefix + ".layers.json");
  out << json;
  if (!out) Die("cannot write " + out_prefix + ".layers.json");
}

// ---------------------------------------------------------------------------
// mine subcommand: the library path

struct JobKind {
  pam::MiningAlgorithm algorithm = pam::MiningAlgorithm::kSerial;
  int ranks = 1;
};

int RunMine(const Args& args) {
  const std::int64_t t0_ns = static_cast<std::int64_t>(args.Number("t0-ns"));
  const std::string db_path = args.Get("db");
  const std::uint64_t minsup = std::stoull(args.Get("minsup"));
  const double minconf = args.Number("minconf");
  const double seconds = args.Number("seconds");
  const std::size_t min_jobs = static_cast<std::size_t>(args.Number("min-jobs"));
  const bool trace = args.Get("trace") == "1";
  const std::string out_prefix = args.Get("out-prefix");
  std::vector<JobKind> round;
  for (const std::string& spec : Split(args.Get("jobs"), ',')) {
    const std::vector<std::string> parts = Split(spec, ':');
    JobKind kind;
    if (parts.size() != 2 || !pam::ParseMiningAlgorithm(parts[0], &kind.algorithm)) {
      Die("bad job " + spec);
    }
    kind.ranks = std::stoi(parts[1]);
    round.push_back(kind);
  }
  if (round.empty()) Die("--jobs is empty");

  // Set-up: everything a user pays before the first mining call.
  const Clock::time_point load_start = Clock::now();
  pam::Result<pam::TransactionDatabase> loaded = pam::ReadBinary(db_path);
  if (!loaded.ok()) Die(loaded.status().message());
  const pam::TransactionDatabase db = std::move(loaded.value());
  const double load_ms = SecondsBetween(load_start, Clock::now()) * 1e3;
  const double setup_s = static_cast<double>(MonotonicNs() - t0_ns) * 1e-9;
  const OracleTable oracle = ReadOracle(args.Get("oracle"));

  std::size_t failed = 0;
  std::string first_error;
  auto make_request = [&](const JobKind& kind, bool timeline) {
    pam::MiningRequest request;
    request.algorithm = kind.algorithm;
    request.num_ranks = kind.ranks;
    request.config.apriori.minsup_count = minsup;
    request.generate_rules = true;
    request.min_confidence = minconf;
    request.collect_timeline = timeline;
    return request;
  };
  struct JobOutcome {
    bool ok = false;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    pam::MiningReport report;
  };
  // One job; output checking happens after its wall and CPU windows close.
  auto run_job = [&](pam::MiningSession& session, const JobKind& kind,
                     bool timeline) {
    JobOutcome outcome;
    const pam::MiningRequest request = make_request(kind, timeline);
    const double cpu_start = SelfCpuSeconds();
    const Clock::time_point start = Clock::now();
    try {
      outcome.report = session.Run(request, db);
      outcome.ok = true;
    } catch (const std::exception& e) {
      if (first_error.empty()) first_error = e.what();
    }
    outcome.wall_s = SecondsBetween(start, Clock::now());
    outcome.cpu_s = SelfCpuSeconds() - cpu_start;
    if (outcome.ok) {
      const std::string error =
          Verify(oracle, "db", minsup, db.size(), minconf,
                 outcome.report.frequent, outcome.report.rules);
      if (!error.empty()) {
        Fail(3, pam::MiningAlgorithmName(kind.algorithm) +
                    " job output wrong: " + error);
      }
    }
    return outcome;
  };

  // Warm-up: one untimed, checked round (page faults, buffer pools).
  pam::MiningSession session;
  for (const JobKind& kind : round) run_job(session, kind, false);

  // Timed phase: whole rounds until both the time and the job floor pass.
  // In a traced run the untimed rounds are followed by the same number of
  // traced rounds.
  const double phase_seconds = trace ? seconds / 2 : seconds;
  const std::size_t phase_jobs = trace ? (min_jobs + 1) / 2 : min_jobs;
  // Throughput and CPU per job are medians over rounds, so a stretch of
  // contention from outside the benchmark moves a few rounds, not the run.
  std::vector<double> latencies_ms;
  std::vector<std::vector<double>> kind_latencies_ms(round.size());
  std::vector<double> round_jobs_per_s;
  std::vector<double> round_cpu_ms_per_job;
  double wall_s = 0.0;
  std::size_t attempted = 0;
  std::size_t rounds = 0;
  while (rounds == 0 || wall_s < phase_seconds || attempted < phase_jobs) {
    double round_wall_s = 0.0;
    double round_cpu_s = 0.0;
    std::size_t round_ok = 0;
    for (const JobKind& kind : round) {
      JobOutcome outcome = run_job(session, kind, false);
      ++attempted;
      if (!outcome.ok) {
        ++failed;
        continue;
      }
      ++round_ok;
      round_wall_s += outcome.wall_s;
      round_cpu_s += outcome.cpu_s;
      latencies_ms.push_back(outcome.wall_s * 1e3);
      kind_latencies_ms[&kind - round.data()].push_back(outcome.wall_s * 1e3);
    }
    if (round_ok > 0) {
      round_jobs_per_s.push_back(static_cast<double>(round_ok) / round_wall_s);
      round_cpu_ms_per_job.push_back(round_cpu_s * 1e3 /
                                     static_cast<double>(round_ok));
    }
    wall_s += round_wall_s;
    ++rounds;
  }
  const double peak_rss_mb = PeakRssMb("self");

  ResultWriter result;
  std::size_t reported_attempted = attempted;
  if (!trace) {
    result.Metric("setup_s", setup_s, "s");
    result.Metric("jobs_per_s", Percentile(round_jobs_per_s, 0.5), "1/s");
    result.Metric("job_p50_ms", Percentile(latencies_ms, 0.5), "ms");
    result.Metric("job_p90_ms", Percentile(latencies_ms, 0.9), "ms");
    result.Metric("cpu_ms_per_job", Percentile(round_cpu_ms_per_job, 0.5),
                  "ms");
  } else {
    LayerTotals layers;
    pam::obs::ChromeTraceWriter chrome("pam_e2e");
    pam::MiningSession chrome_session;
    chrome_session.AddTraceSink(&chrome);
    double traced_wall_s = 0.0;
    std::size_t traced_ok = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const JobKind& kind : round) {
        // The first traced round also goes to the chrome trace file.
        const std::uint64_t copies_before = pam::BufferPool::CopyCount();
        JobOutcome outcome =
            run_job(r == 0 ? chrome_session : session, kind, true);
        const std::uint64_t copies = pam::BufferPool::CopyCount() - copies_before;
        ++reported_attempted;
        if (!outcome.ok) {
          ++failed;
          continue;
        }
        ++traced_ok;
        traced_wall_s += outcome.wall_s;
        // Candidate generation replayed from the outside on every mined
        // level (F_k -> C_k+1), after the job.
        const Clock::time_point gen_start = Clock::now();
        for (const pam::ItemsetCollection& level : outcome.report.frequent.levels) {
          pam::AprioriGen(level);
        }
        const double gen_ms = SecondsBetween(gen_start, Clock::now()) * 1e3;
        layers.AddJob(outcome.report, outcome.wall_s * 1e3, copies, gen_ms);
      }
    }
    std::map<std::string, double> values = layers.PerJob();
    values["tdb.load_ms"] = load_ms;
    values["proc.peak_rss_mb"] = peak_rss_mb;
    values["obs.trace_overhead_ms_per_job"] =
        traced_wall_s * 1e3 / static_cast<double>(std::max<std::size_t>(traced_ok, 1)) -
        wall_s * 1e3 / static_cast<double>(std::max<std::size_t>(latencies_ms.size(), 1));
    EmitLayers(values, out_prefix, &result);
    const pam::Status written = chrome.WriteFile(out_prefix + ".trace.json");
    if (!written.ok()) Die(written.message());
  }
  if (!first_error.empty()) {
    std::fprintf(stderr, "pam_e2e: failed job: %s\n", first_error.c_str());
  }
  std::printf("mine: %zu rounds of %zu jobs, %zu failed\n", rounds,
              round.size(), failed);
  // Where p50 and p90 fall: each job kind's median latency.
  for (std::size_t k = 0; k < round.size(); ++k) {
    std::printf("kind %s ranks=%d median_ms=%.1f\n",
                pam::MiningAlgorithmName(round[k].algorithm).c_str(),
                round[k].ranks,
                Percentile(kind_latencies_ms[k], 0.5));
  }
  std::printf("RESULT %s\n",
              result.Json(reported_attempted, failed, true).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// serve subcommand: the service path

struct ServeRequestSpec {
  std::string tenant;
  std::string dataset;
  std::uint64_t minsup = 0;
  pam::MiningAlgorithm algorithm = pam::MiningAlgorithm::kSerial;
  int ranks = 1;
};

/// One pam_serve --listen child process, spawned with its stdout on a pipe.
class ServerProcess {
 public:
  explicit ServerProcess(const std::vector<std::string>& command) {
    int fds[2];
    if (pipe(fds) != 0) Die("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<char*> argv;
    for (const std::string& arg : command) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) Die("cannot spawn " + command[0] + ": " + std::strerror(rc));
    g_server_pid = pid_;
    out_ = fdopen(fds[0], "r");
  }
  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      Wait();
    }
    if (out_ != nullptr) std::fclose(out_);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Reads stdout lines until "listening on HOST:PORT"; returns the port.
  int WaitForPort() {
    char line[512];
    while (std::fgets(line, sizeof(line), out_) != nullptr) {
      const char* at = std::strstr(line, "listening on ");
      if (at != nullptr) {
        const char* colon = std::strrchr(at, ':');
        if (colon != nullptr) return std::atoi(colon + 1);
      }
    }
    Die("pam_serve exited before listening");
  }

  /// Drains stdout and reaps the process; returns its exit status.
  int Wait() {
    char line[512];
    while (out_ != nullptr && std::fgets(line, sizeof(line), out_) != nullptr) {
    }
    int status = 0;
    waitpid(pid_, &status, 0);
    g_server_pid = -1;
    pid_ = -1;
    return status;
  }

 private:
  pid_t pid_ = -1;
  std::FILE* out_ = nullptr;
};

struct ServeSample {
  std::size_t key = 0;  // index into the request round
  double send_s = 0.0;
  double recv_s = 0.0;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  bool cached = false;
};

std::uint64_t Mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t DoubleBits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Order-independent hash of a response's itemsets, counts and rules: one
/// pass over the decoded frame with no sorting or allocation, cheap enough
/// to run on the request path.
std::uint64_t ResponseHash(const pam::serve::ResponseFrame& frame) {
  std::uint64_t itemsets = 0;
  for (const pam::ItemsetCollection& level : frame.frequent.levels) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      std::uint64_t h = Mix(level.count(i));
      for (pam::Item item : level.Get(i)) h = Mix(h ^ item);
      itemsets += h;
    }
  }
  std::uint64_t rules = 0;
  for (const pam::Rule& rule : frame.rules) {
    std::uint64_t h = Mix(rule.joint_count);
    for (pam::Item item : rule.antecedent) h = Mix(h ^ item);
    h = Mix(h ^ 0xffffffffULL);  // separates antecedent from consequent
    for (pam::Item item : rule.consequent) h = Mix(h ^ item);
    h = Mix(h ^ DoubleBits(rule.support));
    rules += Mix(h ^ DoubleBits(rule.confidence));
  }
  return Mix(itemsets ^ Mix(rules));
}

/// Keeps one copy of each distinct response per request key. The request
/// path only hashes a response; the full check against the oracle runs on
/// the kept copies after every timed phase is over, so it takes no CPU
/// from the server or the client while they are measured. Every response,
/// result-cache hits included, is covered: it equals a copy that is
/// checked.
class ResponseStore {
 public:
  void Add(std::size_t key, pam::serve::ResponseFrame frame) {
    const std::uint64_t hash = ResponseHash(frame);
    std::lock_guard<std::mutex> lock(mu_);
    ++received_;
    copies_.try_emplace({key, hash}, std::move(frame));
  }

  /// Checks every kept copy; ends the run with code 3 on the first wrong one.
  void CheckAll(const OracleTable& oracle,
                const std::vector<ServeRequestSpec>& requests,
                const std::map<std::string, std::size_t>& sizes,
                double minconf) const {
    for (const auto& [id, frame] : copies_) {
      const ServeRequestSpec& spec = requests[id.first];
      const std::string error =
          Verify(oracle, spec.dataset, spec.minsup, sizes.at(spec.dataset),
                 minconf, frame.frequent, frame.rules);
      if (!error.empty()) {
        Fail(3, "response for " + spec.dataset + " at " +
                    std::to_string(spec.minsup) +
                    (frame.from_result_cache ? " (result cache)" : "") +
                    " wrong: " + error);
      }
    }
  }

  std::size_t received() const { return received_; }
  std::size_t distinct() const { return copies_.size(); }

 private:
  std::mutex mu_;
  std::map<std::pair<std::size_t, std::uint64_t>, pam::serve::ResponseFrame>
      copies_;  // (request index in the round, ResponseHash) -> response
  std::size_t received_ = 0;
};

pam::serve::ServerStats FetchStats(pam::serve::NetClient& client) {
  if (!client.SendStats(1u << 30).ok()) Die("stats send failed");
  pam::Result<pam::serve::NetClient::ServerFrame> frame = client.Recv();
  if (!frame.ok() || frame.value().type != pam::serve::FrameType::kStatsResponse) {
    Die("no stats response");
  }
  return frame.value().stats.stats;
}

/// Everything one pam_serve session measured.
struct ServeSession {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::size_t rounds = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<ServeSample> samples;
  pam::serve::ServerStats before;
  pam::serve::ServerStats after;
};

/// Spawns the server, warms up one round, then runs `rounds` whole rounds
/// (or, when 0, whole rounds until the time and job floors pass).
ServeSession RunServeSession(const Args& args,
                             const std::vector<std::string>& server_command,
                             const std::vector<ServeRequestSpec>& requests,
                             ResponseStore* responses, std::size_t rounds,
                             double seconds, std::size_t min_jobs,
                             std::int64_t t0_ns) {
  const double minconf = args.Number("minconf");
  ServeSession session;
  ServerProcess server(server_command);
  const int port = server.WaitForPort();
  std::vector<std::unique_ptr<pam::serve::NetClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<pam::serve::NetClient>());
    const pam::Status status = clients.back()->Connect("127.0.0.1", port);
    if (!status.ok()) Die("connect: " + status.message());
  }
  session.setup_s = static_cast<double>(MonotonicNs() - t0_ns) * 1e-9;

  const std::size_t per_round = requests.size();
  std::mutex mu;
  std::size_t next = 0;
  std::size_t limit = 0;  // first request index not to send
  bool open_ended = false;
  Clock::time_point phase_start;
  std::vector<ServeSample> samples;
  std::size_t failed = 0;

  // Each connection sends its next request only after the previous reply.
  auto connection_loop = [&](int c) {
    pam::serve::NetClient& client = *clients[static_cast<std::size_t>(c)];
    std::uint64_t tag = 0;
    while (true) {
      std::size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (open_ended && next % per_round == 0 && next > 0 &&
            SecondsBetween(phase_start, Clock::now()) >= seconds &&
            next >= min_jobs) {
          limit = next;
          open_ended = false;
        }
        if (!open_ended && next >= limit) return;
        index = next++;
      }
      const ServeRequestSpec& spec = requests[index % per_round];
      pam::MiningRequest request;
      request.tenant = spec.tenant;
      request.dataset = spec.dataset;
      request.algorithm = spec.algorithm;
      request.num_ranks = spec.ranks;
      request.config.apriori.minsup_count = spec.minsup;
      request.generate_rules = true;
      request.min_confidence = minconf;
      ServeSample sample;
      sample.key = index % per_round;
      const Clock::time_point send = Clock::now();
      if (!client.SendMine(++tag, request).ok()) Die("send failed");
      pam::Result<pam::serve::NetClient::ServerFrame> received = client.Recv();
      const Clock::time_point recv = Clock::now();
      if (!received.ok() ||
          received.value().type != pam::serve::FrameType::kResponse) {
        Die("no response frame");
      }
      pam::serve::ResponseFrame frame = std::move(received.value().response);
      sample.send_s = SecondsBetween(phase_start, send);
      sample.recv_s = SecondsBetween(phase_start, recv);
      sample.queue_ms = frame.queue_seconds * 1e3;
      sample.service_ms = frame.service_seconds * 1e3;
      sample.cached = frame.from_result_cache;
      const bool ok = frame.status == pam::serve::ServeStatus::kOk;
      if (ok) {
        responses->Add(sample.key, std::move(frame));
      } else {
        std::fprintf(stderr, "pam_e2e: request failed: %s\n", frame.error.c_str());
      }
      std::lock_guard<std::mutex> lock(mu);
      if (ok) {
        samples.push_back(sample);
      } else {
        ++failed;
      }
    }
  };
  auto run_phase = [&](std::size_t phase_rounds, bool until_time) {
    std::lock_guard<std::mutex> lock(mu);
    next = 0;
    open_ended = until_time;
    limit = phase_rounds * per_round;
    samples.clear();
    failed = 0;
    phase_start = Clock::now();
  };
  auto drive = [&] {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) threads.emplace_back(connection_loop, c);
    for (std::thread& t : threads) t.join();
  };

  run_phase(1, false);  // warm-up round: fills both caches
  drive();
  session.before = FetchStats(*clients[0]);
  const double cpu_start = ProcessCpuSeconds(server.pid());
  run_phase(rounds, rounds == 0);
  const Clock::time_point start = Clock::now();
  drive();
  session.wall_s = SecondsBetween(start, Clock::now());
  session.cpu_s = ProcessCpuSeconds(server.pid()) - cpu_start;
  session.peak_rss_mb = PeakRssMb(std::to_string(server.pid()));
  session.after = FetchStats(*clients[0]);
  session.attempted = next;
  session.rounds = next / per_round;
  session.failed = failed;
  session.samples = std::move(samples);
  if (!clients[0]->SendShutdown().ok()) Die("shutdown send failed");
  for (auto& client : clients) client->Close();
  const int status = server.Wait();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("pam_serve exited abnormally");
  }
  return session;
}

int RunServe(const Args& args) {
  const std::int64_t t0_ns = static_cast<std::int64_t>(args.Number("t0-ns"));
  const double seconds = args.Number("seconds");
  const std::size_t min_jobs = static_cast<std::size_t>(args.Number("min-jobs"));
  const bool trace = args.Get("trace") == "1";
  const std::string out_prefix = args.Get("out-prefix");
  if (args.rest.empty()) Die("missing pam_serve command after --");

  std::vector<ServeRequestSpec> requests;
  {
    std::ifstream in(args.Get("requests"));
    std::string algorithm;
    ServeRequestSpec spec;
    while (in >> spec.tenant >> spec.dataset >> spec.minsup >> algorithm >>
           spec.ranks) {
      if (!pam::ParseMiningAlgorithm(algorithm, &spec.algorithm)) {
        Die("bad algorithm " + algorithm);
      }
      requests.push_back(spec);
    }
  }
  if (requests.empty()) Die("empty request list");
  const OracleTable oracle = ReadOracle(args.Get("oracle"));
  // Transaction counts for the support check of returned rules, read
  // from each file's header (the server owns the loaded databases).
  std::map<std::string, std::size_t> sizes;
  std::map<std::string, std::string> paths;
  for (const std::string& entry : Split(args.Get("datasets"), ',')) {
    const std::vector<std::string> parts = Split(entry, '=');
    if (parts.size() != 2) Die("bad dataset " + entry);
    std::ifstream in(parts[1], std::ios::binary);
    std::uint64_t header[2] = {0, 0};
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    if (!in) Die("cannot read " + parts[1]);
    sizes[parts[0]] = header[1];
    paths[parts[0]] = parts[1];
  }

  ResponseStore responses;
  std::vector<std::string> command = args.rest;
  ServeSession untraced =
      RunServeSession(args, command, requests, &responses, 0,
                      trace ? seconds / 2 : seconds,
                      trace ? (min_jobs + 1) / 2 : min_jobs, t0_ns);
  ResultWriter result;
  std::size_t attempted = untraced.attempted;
  std::size_t failed = untraced.failed;
  if (!trace) {
    std::vector<double> latencies;
    for (const ServeSample& s : untraced.samples) {
      latencies.push_back((s.recv_s - s.send_s) * 1e3);
    }
    const double completed = static_cast<double>(latencies.size());
    result.Metric("setup_s", untraced.setup_s, "s");
    result.Metric("jobs_per_s", completed / untraced.wall_s, "1/s");
    result.Metric("job_p50_ms", Percentile(latencies, 0.5), "ms");
    result.Metric("job_p90_ms", Percentile(latencies, 0.9), "ms");
    result.Metric("cpu_ms_per_job", untraced.cpu_s * 1e3 / completed, "ms");
  } else {
    command.push_back("--trace-out");
    command.push_back(out_prefix + ".trace.json");
    ServeSession traced =
        RunServeSession(args, command, requests, &responses, untraced.rounds,
                        0.0, 0, MonotonicNs());
    attempted += traced.attempted;
    failed += traced.failed;
    std::vector<double> queue;
    std::vector<double> service;
    std::vector<double> wire;
    std::vector<double> traced_latency;
    std::vector<double> untraced_latency;
    for (const ServeSample& s : untraced.samples) {
      untraced_latency.push_back((s.recv_s - s.send_s) * 1e3);
    }
    // Duplicate mines: a miss sent while an earlier miss of the same key
    // was still outstanding.
    std::map<std::pair<std::string, std::uint64_t>, double> outstanding_until;
    std::vector<ServeSample> by_send = traced.samples;
    std::sort(by_send.begin(), by_send.end(),
              [](const ServeSample& a, const ServeSample& b) {
                return a.send_s < b.send_s;
              });
    double duplicates = 0;
    for (const ServeSample& s : by_send) {
      const double latency = (s.recv_s - s.send_s) * 1e3;
      traced_latency.push_back(latency);
      queue.push_back(s.queue_ms);
      service.push_back(s.service_ms);
      wire.push_back(latency - s.queue_ms - s.service_ms);
      if (s.cached) continue;
      const ServeRequestSpec& spec = requests[s.key];
      auto [it, inserted] =
          outstanding_until.emplace(std::make_pair(spec.dataset, spec.minsup), s.recv_s);
      if (!inserted) {
        if (s.send_s < it->second) ++duplicates;
        it->second = std::max(it->second, s.recv_s);
      }
    }
    const double n = static_cast<double>(std::max<std::size_t>(traced.samples.size(), 1));
    const pam::serve::ServerStats& a = traced.before;
    const pam::serve::ServerStats& b = traced.after;
    std::map<std::string, double> values;
    values["serve.queue_ms_p50"] = Percentile(queue, 0.5);
    values["serve.service_ms_p50"] = Percentile(service, 0.5);
    values["serve.wire_ms_p50"] = Percentile(wire, 0.5);
    values["serve.result_hits"] = static_cast<double>(b.result_hits - a.result_hits) / n;
    values["serve.result_misses"] =
        static_cast<double>(b.result_misses - a.result_misses) / n;
    values["serve.result_duplicate_mines"] = duplicates / n;
    values["serve.dataset_misses"] =
        static_cast<double>(b.cache_misses - a.cache_misses) / n;
    values["serve.dataset_evictions"] =
        static_cast<double>(b.cache_evictions - a.cache_evictions) / n;
    values["serve.dataset_resident_mb"] =
        static_cast<double>(b.cache_resident_bytes) / (1024.0 * 1024.0);
    values["serve.peak_queue_depth"] = static_cast<double>(b.peak_queue_depth);
    values["serve.rank_seconds"] =
        (b.rank_seconds_charged - a.rank_seconds_charged) / n;
    std::vector<double> loads;
    for (const auto& [name, path] : paths) {
      const Clock::time_point start = Clock::now();
      pam::Result<pam::TransactionDatabase> db = pam::ReadBinary(path);
      if (!db.ok()) Die(db.status().message());
      loads.push_back(SecondsBetween(start, Clock::now()) * 1e3);
    }
    values["tdb.load_ms"] = Percentile(loads, 0.5);
    values["proc.peak_rss_mb"] = untraced.peak_rss_mb;
    values["obs.trace_overhead_ms_per_job"] =
        Mean(traced_latency) - Mean(untraced_latency);
    EmitLayers(values, out_prefix, &result);
  }
  responses.CheckAll(oracle, requests, sizes, args.Number("minconf"));
  std::printf("serve: %zu responses checked as %zu distinct copies, %zu failed\n",
              responses.received(), responses.distinct(), failed);
  std::printf("RESULT %s\n", result.Json(attempted, failed, true).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: pam_e2e oracle|mine|serve [--flag value]...");
  const std::string command = argv[1];
  const Args args = ParseArgs(argc, argv, 2);
  if (command == "oracle") return RunOracle(args);
  if (command == "permute") return RunPermute(args);
  if (command == "mine") return RunMine(args);
  if (command == "serve") return RunServe(args);
  Die("unknown command " + command);
}
