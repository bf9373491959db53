#include "pam/obs/trace.h"
#include "pam/parallel/pass_engine.h"

namespace pam {
namespace {

using parallel_internal::ExchangeFrequent;
using parallel_internal::FrequentSubset;
using parallel_internal::RingShiftAll;

// DD's data movement (paper Section III-B): every rank pushes each of its
// local pages to every other rank with P-1 point-to-point sends, receiving
// and processing remote pages as they arrive. Each page is wrapped into a
// shared payload once; the P-1 sends all carry the same handle, and remote
// pages are scanned in place through a view of the transport buffer. The
// communication volume per rank is (P-1) * N/P sent and received; on real
// sparse networks this pattern additionally suffers contention, which the
// cost model charges analytically (our mailboxes are unbounded, so the
// finite-buffer idling the paper describes cannot physically deadlock
// here).
void DdAllToAllMovement(Comm& comm, const std::vector<Page>& local_pages,
                        const std::function<void(PageView)>& process,
                        PassMetrics* metrics) {
  const int p = comm.size();
  if (p == 1) {
    for (const Page& page : local_pages) process(page);
    return;
  }
  obs::ScopedSpan exchange_span(obs::SpanKind::kAllToAll, -1, "dd_pages");

  // One log-P sum-reduction tells every rank the global page total; its
  // remote expectation is the total minus its own contribution.
  std::uint64_t total_pages = local_pages.size();
  comm.AllReduceSum(std::span<std::uint64_t>(&total_pages, 1));
  const std::uint64_t expected_remote = total_pages - local_pages.size();

  std::uint64_t received = 0;
  Payload incoming;
  for (const Page& page : local_pages) {
    const Payload handle = Payload::Copy(std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(page.data()),
        page.size() * sizeof(std::uint32_t)));
    for (int r = 0; r < p; ++r) {
      if (r == comm.rank()) continue;
      comm.Isend(r, kTagDdPage, handle);  // same handle to every peer
      if (metrics != nullptr) {
        metrics->data_bytes_sent += handle.size();
        ++metrics->data_messages_sent;
      }
    }
    process(page);
    // Drain whatever remote pages already arrived (ties broken in favor of
    // other processors' buffers, as in the paper).
    while (received < expected_remote &&
           comm.TryRecvPayload(-1, kTagDdPage, &incoming)) {
      ++received;
      process(PageViewOfBytes(incoming.bytes()));
    }
  }
  while (received < expected_remote) {
    incoming = comm.RecvPayload(-1, kTagDdPage);
    ++received;
    process(PageViewOfBytes(incoming.bytes()));
  }
}

}  // namespace

// Data Distribution (paper Section III-B, Figure 5) and its "DD+comm"
// variant (Figure 10) that swaps the all-to-all page movement for IDD's
// ring pipeline while keeping the round-robin candidate partition (and
// hence DD's redundant subset work).
RankOutput RunDdRank(const TransactionDatabase& db, Comm& comm,
                     const ParallelConfig& config, bool ring_movement) {
  using parallel_internal::PassContext;

  const int p = comm.size();
  const TransactionDatabase::Slice slice = db.RankSlice(comm.rank(), p);

  auto count_pass = [&](PassContext& pass) {
    PassMetrics& m = pass.metrics;
    m.grid_rows = p;
    // Every rank regenerated the full candidate set; it keeps its
    // round-robin share in its hash tree.
    const CandidatePartition partition =
        PartitionRoundRobin(pass.candidates.size(), p);
    const std::vector<std::uint32_t>& my_ids =
        partition.ids_per_part[static_cast<std::size_t>(comm.rank())];
    m.num_candidates_local = my_ids.size();

    pass.candidates.counts() =
        parallel_internal::CountDeliveredPages(
            pass, config.apriori, my_ids, {config.apriori.tree},
            [&](const auto& sink) {
              const std::vector<Page> local_pages =
                  Paginate(db, slice, config.page_bytes);
              if (ring_movement) {
                m.data_bytes_sent += RingShiftAll(comm, local_pages, sink,
                                                  &m.data_messages_sent);
              } else {
                DdAllToAllMovement(comm, local_pages, sink, &m);
              }
            })
            .counts;
    // Counts of owned candidates are complete (every transaction passed
    // through this rank): select local frequent sets and exchange them.
    return ExchangeFrequent(
        comm, FrequentSubset(pass.candidates, my_ids, pass.minsup),
        &m.broadcast_words);
  };
  return parallel_internal::RunPasses(db, comm, config, slice, count_pass);
}

}  // namespace pam
