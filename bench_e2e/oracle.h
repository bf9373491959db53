// The benchmark's independent oracle: a vertical tid-list (Eclat-style)
// miner over its own reader of the pam binary transaction file. It shares
// no code with the library (no tdb, no hash tree, no apriori_gen), so a
// fault in the library's counting, candidate generation or rule generation
// cannot hide in the reference the benchmark checks against.
#ifndef PAM_E2E_ORACLE_H_
#define PAM_E2E_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pam_e2e {

/// Transactions in CSR form: transaction t is items[offsets[t] ..
/// offsets[t + 1]), strictly increasing item ids.
struct Transactions {
  std::vector<std::uint64_t> offsets{0};
  std::vector<std::uint32_t> items;

  std::size_t size() const { return offsets.size() - 1; }
  void Add(const std::vector<std::uint32_t>& sorted_items);
};

/// Reads a file written by pam_gen / pam::WriteBinary. The layout is
/// little-endian: u64 magic "PAMTB01F", u64 transaction count, u64 item
/// count, (count + 1) u64 offsets, then the u32 items. Returns false and
/// sets *error on a malformed file.
bool ReadTransactions(const std::string& path, Transactions* out,
                      std::string* error);

/// Writes `db` in the layout ReadTransactions reads.
bool WriteTransactions(const std::string& path, const Transactions& db,
                       std::string* error);

struct Itemset {
  std::vector<std::uint32_t> items;  // strictly increasing
  std::uint64_t count = 0;
};

struct RuleRecord {
  std::vector<std::uint32_t> antecedent;  // strictly increasing
  std::vector<std::uint32_t> consequent;  // strictly increasing
  std::uint64_t joint_count = 0;          // count(antecedent u consequent)
  std::uint64_t antecedent_count = 0;
  double support = 0.0;
  double confidence = 0.0;
};

/// Canonical order: itemsets by (size, items); rules by (antecedent,
/// consequent).
void SortCanonical(std::vector<Itemset>* itemsets);
void SortCanonical(std::vector<RuleRecord>* rules);

/// Every itemset with count >= minsup_count, canonical order. Pair counts
/// come from AND + popcount of per-item tid bitmaps; deeper levels extend
/// each frequent prefix by intersecting sorted tid-lists of its
/// equivalence class.
std::vector<Itemset> MineEclat(const Transactions& db,
                               std::uint64_t minsup_count);

/// Reference for the reference: counts every subset of every transaction
/// (only for short transactions; the oracle test uses it).
std::vector<Itemset> MineBruteForce(const Transactions& db,
                                    std::uint64_t minsup_count);

/// Every rule A => C with A, C non-empty and disjoint, A u C frequent and
/// count(A u C) / count(A) >= min_confidence, canonical order. Confidence
/// and support are computed as double(joint) / double(count(A)) and
/// double(joint) / double(num_transactions).
std::vector<RuleRecord> GenerateRules(const std::vector<Itemset>& frequent,
                                      std::size_t num_transactions,
                                      double min_confidence);

/// Digest of a canonical itemset list (sizes, items and counts) and of a
/// canonical rule list (antecedents, consequents and joint counts).
std::uint64_t DigestItemsets(const std::vector<Itemset>& itemsets);
std::uint64_t DigestRules(const std::vector<RuleRecord>& rules);

/// Oracle-free checks of one mining result: every count >= minsup_count;
/// every (k-1)-subset of a frequent k-itemset is frequent with a count
/// no lower; every rule's itemsets are frequent with matching counts and
/// its confidence equals joint / count(A) exactly and is >= min_confidence.
/// Returns an empty string when all hold, else the first violation.
std::string CheckProperties(const std::vector<Itemset>& itemsets,
                            const std::vector<RuleRecord>& rules,
                            std::uint64_t minsup_count,
                            std::size_t num_transactions,
                            double min_confidence);

}  // namespace pam_e2e

#endif  // PAM_E2E_ORACLE_H_
