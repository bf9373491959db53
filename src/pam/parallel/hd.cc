#include "pam/parallel/pass_engine.h"

namespace pam {

// Hybrid Distribution (paper Section III-D, Figure 9): the P processors
// form a logical G x (P/G) grid, chosen per pass from the candidate count
// (Table II). Candidates are partitioned (IDD-style) among the G rows;
// transactions circulate through the IDD ring within each column (step 1),
// counts are reduced CD-style along rows (step 2), and the frequent subsets
// are exchanged along columns (step 3).
//
// With config.adaptive_balance the per-pass G comes from the LoadModel's
// measured compute/comm ratio once a tree pass has calibrated it (falling
// back to the static Table-II heuristic before that), and the row
// partition uses measured per-first-item weights (DESIGN.md §14). Every
// input to both decisions is a globally-reduced deterministic counter, so
// all ranks pick the same grid; output stays byte-identical to static.
RankOutput RunHdRank(const TransactionDatabase& db, Comm& comm,
                     const ParallelConfig& config) {
  using parallel_internal::ExchangeFrequent;
  using parallel_internal::FrequentSubset;
  using parallel_internal::PassContext;

  const int p = comm.size();
  const int rank = comm.rank();
  const TransactionDatabase::Slice slice = db.RankSlice(rank, p);
  const bool adaptive = config.adaptive_balance;
  const bool adaptive_weights =
      adaptive && config.prefix_strategy == PrefixStrategy::kBinPacked;
  LoadModel model(db.NumItems());
  // The dynamic-G comm term must be identical on every rank: use the
  // whole database's wire size divided by P, not this rank's slice.
  const std::uint64_t wire_bytes_per_rank =
      db.WireBytes(TransactionDatabase::Slice{0, db.size()}) /
      static_cast<std::uint64_t>(p);

  auto count_pass = [&](PassContext& pass) {
    PassMetrics& m = pass.metrics;
    const std::size_t num_candidates = pass.candidates.size();
    // Dynamic grid configuration (Table II), unless pinned by the caller.
    // With adaptive_balance, a calibrated LoadModel overrides the static
    // threshold heuristic using the measured compute/comm ratio; until the
    // first hash-tree pass calibrates it, the static choice stands.
    int rows = parallel_internal::ChooseGridRows(num_candidates,
                                                 config.hd_threshold_m, p);
    if (config.hd_forced_rows > 0) {
      rows = parallel_internal::SmallestDivisorAtLeast(p,
                                                       config.hd_forced_rows);
    } else if (adaptive) {
      rows = model.ChooseGridRows(
          num_candidates,
          static_cast<std::uint64_t>(db.size()) / static_cast<std::uint64_t>(p),
          wire_bytes_per_rank, p, rows);
    }
    const int cols = p / rows;
    const int my_row = rank / cols;
    const int my_col = rank % cols;
    m.grid_rows = rows;
    m.grid_cols = cols;

    std::vector<int> column_members;
    for (int r = 0; r < rows; ++r) column_members.push_back(my_col + r * cols);
    std::vector<int> row_members;
    for (int c = 0; c < cols; ++c) row_members.push_back(my_row * cols + c);
    const auto k = static_cast<std::uint64_t>(pass.k);
    Comm col_comm = comm.Sub(column_members, (k << 32) | 0x434fULL /* CO */);
    Comm row_comm = comm.Sub(row_members, (k << 32) | 0x524fULL /* RO */);

    // Candidate partition among the G rows; identical in every column.
    // Measured weights kick in once the model is calibrated.
    const CandidatePartition partition = parallel_internal::PartitionFirstItems(
        pass, db.NumItems(), rows, config, adaptive_weights ? &model : nullptr);
    const auto row = static_cast<std::size_t>(my_row);
    const std::vector<std::uint32_t>& my_ids = partition.ids_per_part[row];
    m.num_candidates_local = my_ids.size();

    // Step 1: IDD within the column — each rank sees the G * N/P
    // transactions of its column. A pass-2 triangle then holds this
    // column's partial counts, completed by the step-2 row reduction.
    parallel_internal::OwnedCounting how{config.apriori.tree};
    how.tree.identity_root = adaptive;  // exact attribution, as in IDD
    if (config.idd_use_bitmap) {
      how.root_filter = &partition.first_item_filter[row];
    }
    how.attribute_items = adaptive ? db.NumItems() : 0;
    parallel_internal::OwnedCounts counted =
        parallel_internal::CountDeliveredPages(
            pass, config.apriori, my_ids, how, [&](const auto& sink) {
              m.data_bytes_sent += parallel_internal::RingShiftAll(
                  col_comm, Paginate(db, slice, config.page_bytes), sink,
                  &m.data_messages_sent);
            });

    // Adaptive feedback over the full grid: each row's items are counted
    // once per column, and the columns' rings together cover the database
    // exactly once, so the sums are the items' true global work.
    if (!counted.item_work.empty()) {
      parallel_internal::ObserveTreePass(pass, comm, counted.item_work, rows,
                                         &model);
    }

    // Step 2: reduction along the row — every rank of a row holds the same
    // candidate subset; sum their per-column counts.
    std::vector<Count>& counts = counted.counts;
    if (cols > 1) {
      std::vector<std::uint64_t> dense(my_ids.size());
      for (std::size_t i = 0; i < my_ids.size(); ++i) {
        dense[i] = counts[my_ids[i]];
      }
      row_comm.AllReduceSum(std::span<std::uint64_t>(dense));
      for (std::size_t i = 0; i < my_ids.size(); ++i) {
        counts[my_ids[i]] = dense[i];
      }
      m.reduction_words += my_ids.size();
    }

    // Step 3: all-to-all broadcast of frequent subsets along the column
    // (one representative of every row per column).
    pass.candidates.counts() = std::move(counts);
    return ExchangeFrequent(
        col_comm, FrequentSubset(pass.candidates, my_ids, pass.minsup),
        &m.broadcast_words);
  };
  return parallel_internal::RunPasses(db, comm, config, slice, count_pass);
}

}  // namespace pam
