// Tests the benchmark's oracle against brute-force enumeration on small
// random databases, and the property checker against corrupted results.
// Exits non-zero on the first failure.
//
//   .bench_build/oracle_test [scratch-dir]

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>

#include "oracle.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using pam_e2e::Itemset;
using pam_e2e::RuleRecord;
using pam_e2e::Transactions;

Transactions RandomDb(std::mt19937_64& rng, std::size_t num_tx,
                      std::uint32_t num_items, std::size_t max_len) {
  Transactions db;
  std::uniform_int_distribution<std::size_t> len_dist(0, max_len);
  // Skewed item draws so that deep itemsets are frequent.
  std::geometric_distribution<std::uint32_t> item_dist(0.25);
  for (std::size_t t = 0; t < num_tx; ++t) {
    std::vector<bool> present(num_items, false);
    const std::size_t len = len_dist(rng);
    for (std::size_t i = 0; i < len; ++i) {
      present[item_dist(rng) % num_items] = true;
    }
    std::vector<std::uint32_t> items;
    for (std::uint32_t item = 0; item < num_items; ++item) {
      if (present[item]) items.push_back(item);
    }
    db.Add(items);
  }
  return db;
}

bool SameItemsets(const std::vector<Itemset>& a,
                  const std::vector<Itemset>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].items != b[i].items || a[i].count != b[i].count) return false;
  }
  return true;
}

std::uint64_t CountContaining(const Transactions& db,
                              const std::vector<std::uint32_t>& items) {
  std::uint64_t count = 0;
  for (std::size_t t = 0; t < db.size(); ++t) {
    std::size_t found = 0;
    for (std::uint64_t i = db.offsets[t]; i < db.offsets[t + 1]; ++i) {
      if (found < items.size() && db.items[i] == items[found]) ++found;
    }
    if (found == items.size()) ++count;
  }
  return count;
}

void TestEclatMatchesBruteForce() {
  std::mt19937_64 rng(20240917);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t num_tx = 1 + rng() % 120;
    const std::uint32_t num_items = 2 + static_cast<std::uint32_t>(rng() % 14);
    const Transactions db = RandomDb(rng, num_tx, num_items, 9);
    const std::uint64_t minsup = 1 + rng() % (1 + num_tx / 8);
    const std::vector<Itemset> eclat = pam_e2e::MineEclat(db, minsup);
    const std::vector<Itemset> brute = pam_e2e::MineBruteForce(db, minsup);
    CHECK(SameItemsets(eclat, brute));
    CHECK(pam_e2e::DigestItemsets(eclat) == pam_e2e::DigestItemsets(brute));

    const double minconf = static_cast<double>(rng() % 101) / 100.0;
    const std::vector<RuleRecord> rules =
        pam_e2e::GenerateRules(eclat, db.size(), minconf);
    CHECK(pam_e2e::CheckProperties(eclat, rules, minsup, db.size(), minconf)
              .empty());
    // Completeness: every split of every frequent itemset whose
    // confidence, counted straight from the transactions, reaches minconf.
    std::size_t expected_rules = 0;
    for (const Itemset& set : brute) {
      const std::size_t k = set.items.size();
      for (std::uint64_t mask = 1; k >= 2 && mask + 1 < (1ULL << k); ++mask) {
        std::vector<std::uint32_t> antecedent;
        for (std::size_t i = 0; i < k; ++i) {
          if (!(mask >> i & 1)) antecedent.push_back(set.items[i]);
        }
        const double conf =
            static_cast<double>(CountContaining(db, set.items)) /
            static_cast<double>(CountContaining(db, antecedent));
        if (conf >= minconf) ++expected_rules;
      }
    }
    CHECK(rules.size() == expected_rules);
    for (const RuleRecord& rule : rules) {
      CHECK(rule.antecedent_count == CountContaining(db, rule.antecedent));
    }
  }
}

void TestPropertiesCatchCorruption() {
  std::mt19937_64 rng(7);
  const Transactions db = RandomDb(rng, 200, 10, 8);
  const std::uint64_t minsup = 10;
  const std::vector<Itemset> good = pam_e2e::MineEclat(db, minsup);
  const std::vector<RuleRecord> rules =
      pam_e2e::GenerateRules(good, db.size(), 0.3);
  CHECK(good.back().items.size() >= 3);
  CHECK(!rules.empty());
  CHECK(pam_e2e::CheckProperties(good, rules, minsup, db.size(), 0.3)
            .empty());

  std::vector<Itemset> missing = good;
  missing.erase(missing.begin());  // drops a frequent 1-itemset
  CHECK(!pam_e2e::CheckProperties(missing, {}, minsup, db.size(), 0.3)
             .empty());
  std::vector<Itemset> low = good;
  low.back().count = minsup - 1;
  CHECK(!pam_e2e::CheckProperties(low, {}, minsup, db.size(), 0.3).empty());
  std::vector<Itemset> inflated = good;
  inflated.back().count += 1000;
  CHECK(!pam_e2e::CheckProperties(inflated, {}, minsup, db.size(), 0.3)
             .empty());
  std::vector<RuleRecord> bad_conf = rules;
  bad_conf.front().confidence *= 1.0000001;
  CHECK(!pam_e2e::CheckProperties(good, bad_conf, minsup, db.size(), 0.3)
             .empty());
  CHECK(!pam_e2e::CheckProperties(good, rules, minsup, db.size(), 1.01)
             .empty());
  std::vector<Itemset> wrong_count = good;
  wrong_count.front().count += 1;
  CHECK(pam_e2e::DigestItemsets(wrong_count) !=
        pam_e2e::DigestItemsets(good));
}

void TestReaderRoundTrip(const std::string& dir) {
  std::mt19937_64 rng(11);
  const Transactions db = RandomDb(rng, 50, 12, 6);
  const std::string path = dir + "/oracle_test.db";
  Transactions back;
  std::string error;
  CHECK(pam_e2e::WriteTransactions(path, db, &error));
  CHECK(pam_e2e::ReadTransactions(path, &back, &error));
  CHECK(back.offsets == db.offsets && back.items == db.items);
  std::remove(path.c_str());
  CHECK(!pam_e2e::ReadTransactions(path, &back, &error));
}

}  // namespace

int main(int argc, char** argv) {
  TestEclatMatchesBruteForce();
  TestPropertiesCatchCorruption();
  TestReaderRoundTrip(argc > 1 ? argv[1] : ".");
  if (g_failures != 0) {
    std::fprintf(stderr, "oracle_test: %d failures\n", g_failures);
    return 1;
  }
  std::printf("oracle_test: ok\n");
  return 0;
}
