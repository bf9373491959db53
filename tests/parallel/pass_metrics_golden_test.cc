// Work-counter golden for the six parallel formulations: for fixed-seed
// Quest data, every PassMetrics field except wall_seconds, for every pass
// and every rank, is rendered as text and fingerprinted. The cost model,
// the figure benches and the adaptive balancer all read these fields, so a
// refactor of the pass loop must leave every one of them unchanged —
// including easy-to-miss details such as CD reporting its pass 1 as a
// 1 x P grid while DD, IDD and HPA leave pass 1 at 1 x 1.
//
// On a mismatch the test prints the full per-pass, per-rank rendering of
// the run, so the changed field can be read off directly.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pam/parallel/driver.h"
#include "testing/test_support.h"

namespace pam {
namespace {

struct GoldenCase {
  const char* name;
  Algorithm algorithm;
  int ranks;
  std::uint64_t digest;  // FNV-1a 64 of RenderMetrics()
};

// The base configuration counts pass 2 with the hash tree (triangle off),
// so every formulation's tree path, root filter and partition run in
// every pass; the named variants below switch one knob each.
ParallelConfig BaseConfig() {
  ParallelConfig config;
  config.apriori.minsup_fraction = 0.02;
  config.apriori.use_pass2_triangle = false;
  config.page_bytes = 1024;
  // Small enough that HD picks a real 2 x 2 grid at P = 4 in pass 2.
  config.hd_threshold_m = 1000;
  return config;
}

void AppendU64(std::string* out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, key, value);
  *out += buf;
}

std::string RenderPass(const PassMetrics& m) {
  std::string s;
  AppendU64(&s, "k", static_cast<std::uint64_t>(m.k));
  AppendU64(&s, "cand_global", m.num_candidates_global);
  AppendU64(&s, "cand_local", m.num_candidates_local);
  AppendU64(&s, "freq_global", m.num_frequent_global);
  AppendU64(&s, "build_inserts", m.tree_build_inserts);
  AppendU64(&s, "sub.tx", m.subset.transactions);
  AppendU64(&s, "sub.root_considered", m.subset.root_items_considered);
  AppendU64(&s, "sub.root_skipped", m.subset.root_items_skipped);
  AppendU64(&s, "sub.steps", m.subset.traversal_steps);
  AppendU64(&s, "sub.leaf_visits", m.subset.distinct_leaf_visits);
  AppendU64(&s, "sub.leaf_checks", m.subset.leaf_candidates_checked);
  AppendU64(&s, "tx", m.transactions_processed);
  AppendU64(&s, "data_bytes", m.data_bytes_sent);
  AppendU64(&s, "data_msgs", m.data_messages_sent);
  AppendU64(&s, "reduction", m.reduction_words);
  AppendU64(&s, "broadcast", m.broadcast_words);
  AppendU64(&s, "scans", m.db_scans);
  AppendU64(&s, "db_wire", m.local_db_wire_bytes);
  AppendU64(&s, "faults", m.comm_faults_injected);
  AppendU64(&s, "retries", m.comm_retries);
  AppendU64(&s, "detected", m.comm_faults_detected);
  AppendU64(&s, "rows", static_cast<std::uint64_t>(m.grid_rows));
  AppendU64(&s, "cols", static_cast<std::uint64_t>(m.grid_cols));
  AppendU64(&s, "digest", m.partition_digest);
  AppendU64(&s, "rebalanced", m.rebalanced_candidates);
  AppendU64(&s, "sync", m.balance_sync_words);
  AppendU64(&s, "threads", static_cast<std::uint64_t>(m.threads_per_rank));
  s += " shards=[";
  for (std::uint64_t w : m.shard_subset_work) AppendU64(&s, "w", w);
  s += " ]";
  return s;
}

std::string RenderMetrics(const RunMetrics& metrics) {
  std::string out;
  for (int pass = 0; pass < metrics.num_passes(); ++pass) {
    for (int rank = 0; rank < metrics.num_ranks(); ++rank) {
      out += "pass " + std::to_string(pass + 1) + " rank " +
             std::to_string(rank) + ":";
      out += RenderPass(metrics.per_pass[static_cast<std::size_t>(pass)]
                                        [static_cast<std::size_t>(rank)]);
      out += "\n";
    }
  }
  return out;
}

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

void ExpectGolden(const std::vector<GoldenCase>& cases,
                  const ParallelConfig& config) {
  const TransactionDatabase db = testing::SmallQuestDb();
  const auto serial = testing::SerialReference(db, config.apriori);
  for (const GoldenCase& c : cases) {
    const ParallelResult result =
        MineParallel(c.algorithm, db, c.ranks, config);
    testing::ExpectMatchesSerial(result, serial, c.name);
    const std::string rendered = RenderMetrics(result.metrics);
    const std::uint64_t digest = Fnv1a(rendered);
    EXPECT_EQ(digest, c.digest)
        << c.name << ": PassMetrics changed; got 0x" << std::hex << digest
        << std::dec << " for\n"
        << rendered;
  }
}

TEST(PassMetricsGoldenTest, AllFormulationsAcrossRankCounts) {
  ExpectGolden(
      {
          {"CD/P1", Algorithm::kCD, 1, 0x93485ae82ac15103ULL},
          {"CD/P3", Algorithm::kCD, 3, 0x307cf80337162bbeULL},
          {"CD/P4", Algorithm::kCD, 4, 0xe057173b80e9a893ULL},
          {"DD/P1", Algorithm::kDD, 1, 0xcf1a3910c739985aULL},
          {"DD/P3", Algorithm::kDD, 3, 0xd1b0f2d02226d07cULL},
          {"DD/P4", Algorithm::kDD, 4, 0x962b539b11e1758aULL},
          {"DD+comm/P1", Algorithm::kDDComm, 1, 0xcf1a3910c739985aULL},
          {"DD+comm/P3", Algorithm::kDDComm, 3, 0xee245f8fe600cd0aULL},
          {"DD+comm/P4", Algorithm::kDDComm, 4, 0x6e6d53cb72cd9108ULL},
          {"IDD/P1", Algorithm::kIDD, 1, 0xf3f5a0be9c247729ULL},
          {"IDD/P3", Algorithm::kIDD, 3, 0x3efdd48044e13ed6ULL},
          {"IDD/P4", Algorithm::kIDD, 4, 0xf3ebbd87df7ad01fULL},
          {"HD/P1", Algorithm::kHD, 1, 0xf3f5a0be9c247729ULL},
          {"HD/P3", Algorithm::kHD, 3, 0xb1d4c3460522d80aULL},
          {"HD/P4", Algorithm::kHD, 4, 0x5fb90aa0ff2f5d63ULL},
          {"HPA/P1", Algorithm::kHPA, 1, 0x9e82ba63738f9847ULL},
          {"HPA/P3", Algorithm::kHPA, 3, 0xe8638cefd3f7eb4bULL},
          {"HPA/P4", Algorithm::kHPA, 4, 0x02635f62f11d1372ULL},
      },
      BaseConfig());
}

TEST(PassMetricsGoldenTest, Pass2TriangleWithTwoThreadTeams) {
  ParallelConfig config = BaseConfig();
  config.apriori.use_pass2_triangle = true;
  config.apriori.threads_per_rank = 2;
  ExpectGolden(
      {
          {"CD/P3", Algorithm::kCD, 3, 0xb7c8aa5e9f21fffdULL},
          {"DD/P3", Algorithm::kDD, 3, 0x8a0fad9e1e5e9472ULL},
          {"DD+comm/P3", Algorithm::kDDComm, 3, 0xfa81bdb301b61158ULL},
          {"IDD/P3", Algorithm::kIDD, 3, 0x46240965de8cf8b1ULL},
          {"HD/P4", Algorithm::kHD, 4, 0x40b9dfbbd535dc89ULL},
          {"HPA/P3", Algorithm::kHPA, 3, 0xc2aeb2662c077707ULL},
      },
      config);
}

TEST(PassMetricsGoldenTest, AdaptiveBalance) {
  ParallelConfig config = BaseConfig();
  config.adaptive_balance = true;
  ExpectGolden(
      {
          {"IDD/P4", Algorithm::kIDD, 4, 0xf6fc60bdb5ea4169ULL},
          {"HD/P4", Algorithm::kHD, 4, 0x9614bb3ca4ca12cfULL},
      },
      config);
}

TEST(PassMetricsGoldenTest, CdChunksUnderCandidateCap) {
  ParallelConfig config = BaseConfig();
  config.apriori.max_candidates_in_memory = 300;
  ExpectGolden({{"CD/P3", Algorithm::kCD, 3, 0x59af24fc581eb6deULL}}, config);
}

TEST(PassMetricsGoldenTest, DhpBuckets) {
  ParallelConfig config = BaseConfig();
  config.apriori.dhp_buckets = 97;
  ExpectGolden(
      {
          {"CD/P3", Algorithm::kCD, 3, 0xe0a0eaeca2b85b77ULL},
          {"DD/P3", Algorithm::kDD, 3, 0x2494f93669a274abULL},
          {"DD+comm/P3", Algorithm::kDDComm, 3, 0x580f8f6a1e0ab591ULL},
          {"IDD/P3", Algorithm::kIDD, 3, 0x94cac9abc62744a3ULL},
          {"HD/P4", Algorithm::kHD, 4, 0x5926acb9541feeafULL},
          {"HPA/P3", Algorithm::kHPA, 3, 0x67e8939c9207b160ULL},
      },
      config);
}

TEST(PassMetricsGoldenTest, IddSingleSource) {
  ParallelConfig config = BaseConfig();
  config.single_source = true;
  ExpectGolden({{"IDD/P4", Algorithm::kIDD, 4, 0x67fac7a9b2ecc65dULL}}, config);
}

TEST(PassMetricsGoldenTest, HdForcedRows) {
  ParallelConfig config = BaseConfig();
  config.hd_forced_rows = 2;  // 2 x 2 at P = 4; 3 x 1 at P = 3
  ExpectGolden(
      {
          {"HD/P4", Algorithm::kHD, 4, 0xe2349869aaaae4ffULL},
          {"HD/P3", Algorithm::kHD, 3, 0x3efdd48044e13ed6ULL},
      },
      config);
}

}  // namespace
}  // namespace pam
