#include "oracle.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>

namespace pam_e2e {
namespace {

constexpr std::uint64_t kBinaryMagic = 0x50414d5442303146ULL;  // "PAMTB01F"

struct ItemsHash {
  std::size_t operator()(const std::vector<std::uint32_t>& items) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint32_t item : items) h = (h ^ item) * 0x100000001b3ULL;
    return static_cast<std::size_t>(h);
  }
};
using CountMap =
    std::unordered_map<std::vector<std::uint32_t>, std::uint64_t, ItemsHash>;

CountMap ToCountMap(const std::vector<Itemset>& itemsets) {
  CountMap map;
  map.reserve(itemsets.size() * 2);
  for (const Itemset& set : itemsets) map.emplace(set.items, set.count);
  return map;
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t MixItems(std::uint64_t h,
                       const std::vector<std::uint32_t>& items) {
  h = Mix(h, items.size());
  for (std::uint32_t item : items) h = Mix(h, item);
  return h;
}

bool StrictlyIncreasing(const std::vector<std::uint32_t>& items) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    if (items[i - 1] >= items[i]) return false;
  }
  return true;
}

std::string Render(const std::vector<std::uint32_t>& items) {
  std::string out = "{";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ' ';
    out += std::to_string(items[i]);
  }
  return out + "}";
}

/// One member of an Eclat equivalence class: the last item of the itemset
/// (prefix + item) and the transactions containing it.
struct ClassMember {
  std::uint32_t item = 0;
  std::vector<std::uint32_t> tids;
};

void Intersect(const std::vector<std::uint32_t>& a,
               const std::vector<std::uint32_t>& b,
               std::vector<std::uint32_t>* out) {
  out->clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
}

/// Depth-first Eclat over one equivalence class: every member is already
/// frequent and emitted; extend each by the members after it.
void ExtendClass(std::vector<std::uint32_t>* prefix,
                 const std::vector<ClassMember>& members,
                 std::uint64_t minsup_count, std::vector<Itemset>* out) {
  std::vector<std::uint32_t> scratch;
  for (std::size_t a = 0; a < members.size(); ++a) {
    std::vector<ClassMember> next;
    for (std::size_t b = a + 1; b < members.size(); ++b) {
      Intersect(members[a].tids, members[b].tids, &scratch);
      if (scratch.size() >= minsup_count) {
        next.push_back(ClassMember{members[b].item, scratch});
      }
    }
    if (next.empty()) continue;
    prefix->push_back(members[a].item);
    for (const ClassMember& m : next) {
      Itemset set;
      set.items = *prefix;
      set.items.push_back(m.item);
      set.count = m.tids.size();
      out->push_back(std::move(set));
    }
    ExtendClass(prefix, next, minsup_count, out);
    prefix->pop_back();
  }
}

}  // namespace

void Transactions::Add(const std::vector<std::uint32_t>& sorted_items) {
  items.insert(items.end(), sorted_items.begin(), sorted_items.end());
  offsets.push_back(items.size());
}

bool ReadTransactions(const std::string& path, Transactions* out,
                      std::string* error) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) {
    *error = "cannot open " + path;
    return false;
  }
  std::uint64_t header[3] = {0, 0, 0};
  if (std::fread(header, sizeof(std::uint64_t), 3, file.get()) != 3 ||
      header[0] != kBinaryMagic) {
    *error = "bad header in " + path;
    return false;
  }
  const std::uint64_t num_tx = header[1];
  const std::uint64_t num_items = header[2];
  if (num_tx > (1ULL << 32) || num_items > (1ULL << 36)) {
    *error = "implausible sizes in " + path;
    return false;
  }
  out->offsets.resize(num_tx + 1);
  out->items.resize(num_items);
  if (std::fread(out->offsets.data(), sizeof(std::uint64_t), num_tx + 1,
                 file.get()) != num_tx + 1 ||
      std::fread(out->items.data(), sizeof(std::uint32_t), num_items,
                 file.get()) != num_items ||
      std::fgetc(file.get()) != EOF) {
    *error = "truncated or oversized file " + path;
    return false;
  }
  if (out->offsets.front() != 0 || out->offsets.back() != num_items) {
    *error = "bad offsets in " + path;
    return false;
  }
  for (std::uint64_t t = 0; t < num_tx; ++t) {
    const std::uint64_t begin = out->offsets[t];
    const std::uint64_t end = out->offsets[t + 1];
    if (begin > end) {
      *error = "non-monotone offsets in " + path;
      return false;
    }
    for (std::uint64_t i = begin + 1; i < end; ++i) {
      if (out->items[i - 1] >= out->items[i]) {
        *error = "unsorted transaction in " + path;
        return false;
      }
    }
  }
  return true;
}

bool WriteTransactions(const std::string& path, const Transactions& db,
                       std::string* error) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  const std::uint64_t header[3] = {kBinaryMagic, db.size(), db.items.size()};
  if (!file ||
      std::fwrite(header, sizeof(std::uint64_t), 3, file.get()) != 3 ||
      std::fwrite(db.offsets.data(), sizeof(std::uint64_t), db.offsets.size(),
                  file.get()) != db.offsets.size() ||
      std::fwrite(db.items.data(), sizeof(std::uint32_t), db.items.size(),
                  file.get()) != db.items.size() ||
      std::fflush(file.get()) != 0) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

void SortCanonical(std::vector<Itemset>* itemsets) {
  std::sort(itemsets->begin(), itemsets->end(),
            [](const Itemset& a, const Itemset& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.items < b.items;
            });
}

void SortCanonical(std::vector<RuleRecord>* rules) {
  std::sort(rules->begin(), rules->end(),
            [](const RuleRecord& a, const RuleRecord& b) {
              if (a.antecedent != b.antecedent) {
                return a.antecedent < b.antecedent;
              }
              return a.consequent < b.consequent;
            });
}

std::vector<Itemset> MineEclat(const Transactions& db,
                               std::uint64_t minsup_count) {
  if (minsup_count == 0) minsup_count = 1;
  std::uint32_t max_item = 0;
  for (std::uint32_t item : db.items) max_item = std::max(max_item, item);
  std::vector<std::vector<std::uint32_t>> tids(
      db.items.empty() ? 0 : static_cast<std::size_t>(max_item) + 1);
  for (std::size_t t = 0; t < db.size(); ++t) {
    for (std::uint64_t i = db.offsets[t]; i < db.offsets[t + 1]; ++i) {
      tids[db.items[i]].push_back(static_cast<std::uint32_t>(t));
    }
  }

  std::vector<Itemset> out;
  std::vector<std::uint32_t> frequent_items;
  for (std::size_t item = 0; item < tids.size(); ++item) {
    if (tids[item].size() >= minsup_count) {
      frequent_items.push_back(static_cast<std::uint32_t>(item));
      out.push_back(Itemset{{static_cast<std::uint32_t>(item)},
                            tids[item].size()});
    }
  }

  // Pairs: AND + popcount over per-item tid bitmaps, then the tid-list of
  // each frequent pair by probing the first item's list in the second's
  // bitmap.
  const std::size_t words = (db.size() + 63) / 64;
  const std::size_t f1 = frequent_items.size();
  std::vector<std::uint64_t> bitmaps(f1 * words, 0);
  for (std::size_t r = 0; r < f1; ++r) {
    std::uint64_t* bits = &bitmaps[r * words];
    for (std::uint32_t t : tids[frequent_items[r]]) {
      bits[t / 64] |= 1ULL << (t % 64);
    }
  }
  std::vector<std::uint32_t> prefix;
  for (std::size_t a = 0; a < f1; ++a) {
    const std::uint64_t* bits_a = &bitmaps[a * words];
    const std::vector<std::uint32_t>& tids_a = tids[frequent_items[a]];
    std::vector<ClassMember> members;
    for (std::size_t b = a + 1; b < f1; ++b) {
      const std::uint64_t* bits_b = &bitmaps[b * words];
      std::uint64_t count = 0;
      for (std::size_t w = 0; w < words; ++w) {
        count += static_cast<std::uint64_t>(std::popcount(bits_a[w] & bits_b[w]));
      }
      if (count < minsup_count) continue;
      ClassMember member{frequent_items[b], {}};
      member.tids.reserve(count);
      for (std::uint32_t t : tids_a) {
        if (bits_b[t / 64] >> (t % 64) & 1) member.tids.push_back(t);
      }
      out.push_back(Itemset{{frequent_items[a], frequent_items[b]}, count});
      members.push_back(std::move(member));
    }
    prefix.assign(1, frequent_items[a]);
    ExtendClass(&prefix, members, minsup_count, &out);
  }
  SortCanonical(&out);
  return out;
}

std::vector<Itemset> MineBruteForce(const Transactions& db,
                                    std::uint64_t minsup_count) {
  if (minsup_count == 0) minsup_count = 1;
  std::map<std::vector<std::uint32_t>, std::uint64_t> counts;
  for (std::size_t t = 0; t < db.size(); ++t) {
    const std::uint32_t* items = db.items.data() + db.offsets[t];
    const std::size_t len = db.offsets[t + 1] - db.offsets[t];
    for (std::uint64_t mask = 1; mask < (1ULL << len); ++mask) {
      std::vector<std::uint32_t> subset;
      for (std::size_t i = 0; i < len; ++i) {
        if (mask >> i & 1) subset.push_back(items[i]);
      }
      ++counts[subset];
    }
  }
  std::vector<Itemset> out;
  for (const auto& [items, count] : counts) {
    if (count >= minsup_count) out.push_back(Itemset{items, count});
  }
  SortCanonical(&out);
  return out;
}

std::vector<RuleRecord> GenerateRules(const std::vector<Itemset>& frequent,
                                      std::size_t num_transactions,
                                      double min_confidence) {
  const CountMap counts = ToCountMap(frequent);
  std::vector<RuleRecord> rules;
  for (const Itemset& set : frequent) {
    const std::size_t k = set.items.size();
    if (k < 2) continue;
    for (std::uint64_t mask = 1; mask + 1 < (1ULL << k); ++mask) {
      RuleRecord rule;
      for (std::size_t i = 0; i < k; ++i) {
        (mask >> i & 1 ? rule.consequent : rule.antecedent)
            .push_back(set.items[i]);
      }
      const auto it = counts.find(rule.antecedent);
      if (it == counts.end()) continue;  // unreachable for a closed set
      rule.joint_count = set.count;
      rule.antecedent_count = it->second;
      rule.confidence = static_cast<double>(set.count) /
                        static_cast<double>(it->second);
      rule.support = static_cast<double>(set.count) /
                     static_cast<double>(num_transactions);
      if (rule.confidence >= min_confidence) rules.push_back(std::move(rule));
    }
  }
  SortCanonical(&rules);
  return rules;
}

std::uint64_t DigestItemsets(const std::vector<Itemset>& itemsets) {
  std::uint64_t h = Mix(0, itemsets.size());
  for (const Itemset& set : itemsets) h = Mix(MixItems(h, set.items), set.count);
  return h;
}

std::uint64_t DigestRules(const std::vector<RuleRecord>& rules) {
  std::uint64_t h = Mix(1, rules.size());
  for (const RuleRecord& rule : rules) {
    h = MixItems(MixItems(h, rule.antecedent), rule.consequent);
    h = Mix(h, rule.joint_count);
  }
  return h;
}

std::string CheckProperties(const std::vector<Itemset>& itemsets,
                            const std::vector<RuleRecord>& rules,
                            std::uint64_t minsup_count,
                            std::size_t num_transactions,
                            double min_confidence) {
  const CountMap counts = ToCountMap(itemsets);
  if (counts.size() != itemsets.size()) return "duplicate itemset";
  std::vector<std::uint32_t> subset;
  for (const Itemset& set : itemsets) {
    if (set.items.empty() || !StrictlyIncreasing(set.items)) {
      return "malformed itemset " + Render(set.items);
    }
    if (set.count < minsup_count) {
      return "itemset " + Render(set.items) + " below minsup: " +
             std::to_string(set.count);
    }
    if (set.items.size() < 2) continue;
    for (std::size_t drop = 0; drop < set.items.size(); ++drop) {
      subset = set.items;
      subset.erase(subset.begin() + static_cast<std::ptrdiff_t>(drop));
      const auto it = counts.find(subset);
      if (it == counts.end()) {
        return "downward closure: " + Render(subset) + " of " +
               Render(set.items) + " missing";
      }
      if (it->second < set.count) {
        return "downward closure: count of " + Render(subset) +
               " below that of " + Render(set.items);
      }
    }
  }
  for (const RuleRecord& rule : rules) {
    const std::string name =
        Render(rule.antecedent) + " => " + Render(rule.consequent);
    if (rule.antecedent.empty() || rule.consequent.empty() ||
        !StrictlyIncreasing(rule.antecedent) ||
        !StrictlyIncreasing(rule.consequent)) {
      return "malformed rule " + name;
    }
    std::vector<std::uint32_t> joint = rule.antecedent;
    joint.insert(joint.end(), rule.consequent.begin(), rule.consequent.end());
    std::sort(joint.begin(), joint.end());
    if (!StrictlyIncreasing(joint)) return "overlapping rule " + name;
    const auto joint_it = counts.find(joint);
    const auto ante_it = counts.find(rule.antecedent);
    if (joint_it == counts.end() || ante_it == counts.end()) {
      return "rule " + name + " over an infrequent itemset";
    }
    if (joint_it->second != rule.joint_count) {
      return "rule " + name + " joint count differs from its itemset";
    }
    const double confidence = static_cast<double>(joint_it->second) /
                              static_cast<double>(ante_it->second);
    if (rule.confidence != confidence) {
      return "rule " + name + " confidence differs from count(A u C) / " +
             "count(A)";
    }
    if (rule.confidence < min_confidence) {
      return "rule " + name + " below minconf";
    }
    if (rule.support != static_cast<double>(rule.joint_count) /
                            static_cast<double>(num_transactions)) {
      return "rule " + name + " support differs from count / |T|";
    }
  }
  return "";
}

}  // namespace pam_e2e
