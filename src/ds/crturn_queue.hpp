#pragma once
// CRTurn-style wait-free MPMC queue, after Ramalhete & Correia [35] — the
// paper's second wait-free workload (Figs. 5c/5d).
//
// Reconstruction note (see DESIGN.md): this implements the published
// *design* of the CRTurn queue — single-width CAS only, one allocation
// per enqueue, turn-based helping through per-thread request arrays, and
// the "previous request" deferred-retirement discipline — re-derived from
// the poster/tech-report description rather than transcribed from the
// authors' code.  Structural properties the figures depend on (wait-free
// progress, allocation rate, reclamation pressure) are preserved.
//
// Enqueue: a thread publishes its node in enqueuers_[tid]; helpers serve
// requests in turn order starting after the tail node's enqueuer, so a
// request is linked within a bounded number of rounds.  A request slot is
// always cleared before the tail moves past its node, which is what makes
// re-linking (and the resulting cycle) impossible.
//
// Dequeue: thread tid is *pending* while deqself_[tid] == deqhelp_[tid].
// Helpers claim the head's successor for a pending *request generation*
// — the claim word in the node packs (tid, per-thread sequence number) —
// then complete the request by CAS-ing deqhelp_[tid] from its current
// marker to the claimed node, and only then advance head.  The
// completion marker is the node returned by tid's previous dequeue —
// unique per operation — and every pointer used as a CAS expected value
// is protected first, so marker recycling (ABA) is impossible while any
// helper still holds it.  An empty queue is answered by assigning the
// head node with a low tag bit set.
//
// Why claims carry a generation: a claim can be orphaned when its
// request is answered "empty" by a racing helper.  Generation death is
// irreversible — the sequence number only grows and each generation's
// completion marker is consumed exactly once — so once a resolver
// observes the claiming generation dead *and* the node undelivered, no
// in-flight delivery for that generation can ever succeed, and the node
// can safely be re-claimed for a live request (never dropped, never
// delivered twice).
//
// Consumed nodes are retired by their consumer's *next* dequeue (the
// deqself "previous request" slot), never by the head-CAS winner, so each
// node is retired exactly once.
//
// Reservation slots: 0 = head/tail, 1 = next, 2 = request/marker.

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "reclaim/tracker.hpp"
#include "util/cacheline.hpp"
#include "util/marked_ptr.hpp"

#ifdef CRTURN_TRACE
#include <cstdio>
#include <mutex>
#include <deque>
namespace wfe::ds::trace {
struct Ev { const char* what; std::uint64_t val, a, b, c; };
inline std::mutex mu;
inline std::deque<Ev> log;
inline void ev(const char* what, std::uint64_t val, std::uint64_t a = 0,
               std::uint64_t b = 0, std::uint64_t c = 0) {
  std::scoped_lock lk(mu);
  log.push_back({what, val, a, b, c});
  if (log.size() > 4000000) log.pop_front();
}
}  // namespace wfe::ds::trace
#define CRTURN_EV(...) ::wfe::ds::trace::ev(__VA_ARGS__)
#else
#define CRTURN_EV(...) ((void)0)
#endif

namespace wfe::ds {

template <class V, reclaim::tracker_for Tracker>
class CrTurnQueue {
 public:
  static constexpr unsigned kSlotsNeeded = 3;
  static constexpr unsigned kNoThread = ~0u;

  explicit CrTurnQueue(Tracker& tracker)
      : tracker_(tracker),
        n_(tracker.max_threads()),
        enqueuers_(n_),
        deqself_(n_),
        deqhelp_(n_),
        deqseq_(n_),
        retire_limbo_(n_) {
    Node* sentinel = tracker_.template alloc<Node>(0, V{}, kNoThread);
    initial_sentinel_ = sentinel;
    head_.store(sentinel, std::memory_order_relaxed);
    tail_.store(sentinel, std::memory_order_relaxed);
    for (unsigned i = 0; i < n_; ++i) {
      enqueuers_[i].store(nullptr, std::memory_order_relaxed);
      // Distinct per-thread dummies so deqself != deqhelp (not pending).
      Node* dummy = tracker_.template alloc<Node>(0, V{}, kNoThread);
      deqself_[i].store(nullptr, std::memory_order_relaxed);
      deqhelp_[i].store(dummy, std::memory_order_relaxed);
      deqseq_[i].store(0, std::memory_order_relaxed);
    }
  }

  CrTurnQueue(const CrTurnQueue&) = delete;
  CrTurnQueue& operator=(const CrTurnQueue&) = delete;

  /// Quiescent teardown.  Chain nodes are freed by walking head_; the
  /// deqself/deqhelp slots hold already-consumed nodes whose deferred
  /// retirement never happened (plus the initial dummies) — freed here,
  /// deduplicated against each other and the chain head.
  ~CrTurnQueue() {
    std::vector<Node*> extra;
    for (unsigned i = 0; i < n_; ++i) {
      for (Node* p : retire_limbo_[i].nodes) {
        if (!seen(extra, p)) extra.push_back(p);
      }
    }
    for (unsigned i = 0; i < n_; ++i) {
      for (std::atomic<Node*>* slot : {&deqself_[i], &deqhelp_[i]}) {
        // Tagged values are empty-answer markers: they alias some consumed
        // node owned (and possibly already freed) elsewhere — never ours.
        const std::uintptr_t w =
            as_word(slot->load(std::memory_order_relaxed));
        if (w == 0 || util::is_marked(w)) continue;
        Node* v = util::unpack_ptr<Node>(w);
        if (!seen(extra, v)) extra.push_back(v);
      }
    }
    // The initial sentinel is nobody's dequeue result, so no owner ever
    // retires it once the head passes it; reap it here.
    if (head_.load(std::memory_order_relaxed) != initial_sentinel_ &&
        !seen(extra, initial_sentinel_)) {
      extra.push_back(initial_sentinel_);
    }
    Node* chain = head_.load(std::memory_order_relaxed);
    while (chain != nullptr) {
      Node* next = chain->next.load(std::memory_order_relaxed);
      if (!seen(extra, chain)) tracker_.dealloc(chain, 0);
      chain = next;
    }
    for (Node* v : extra) tracker_.dealloc(v, 0);
  }

  void enqueue(const V& value, unsigned tid) {
    tracker_.begin_op(tid);
    Node* node = tracker_.template alloc<Node>(tid, value, tid);
    enqueuers_[tid].store(node, std::memory_order_seq_cst);
    while (enqueuers_[tid].load(std::memory_order_seq_cst) == node)
      enqueue_round(tid);
    tracker_.end_op(tid);
  }

  std::optional<V> dequeue(unsigned tid) {
    tracker_.begin_op(tid);
    // Deferred retirement of the result consumed two operations ago
    // (helpers of the previous op may still use the previous marker).
    Node* prev_req = deqself_[tid].load(std::memory_order_relaxed);
    Node* marker = deqhelp_[tid].load(std::memory_order_relaxed);
    // Open a new request generation: bump the sequence FIRST so a picker
    // pairing the old sequence with the new pending state produces a
    // claim that resolvers recognise as dead and re-assign.
    deqseq_[tid].fetch_add(1, std::memory_order_seq_cst);
    deqself_[tid].store(marker, std::memory_order_seq_cst);  // now pending
    if (prev_req != nullptr && !util::is_marked(as_word(prev_req))) {
      // prev_req may STILL be the head sentinel: its successor (this op's
      // marker) was delivered, but the delivering helper's head CAS can
      // lag.  Retiring the live sentinel would let head_ dangle and, once
      // the address recycles into a re-enqueued node, teleport the head
      // over a whole chain segment.  Help the head past it, and defer the
      // retirement of anything that is still the sentinel.
      if (!util::is_marked(as_word(marker)) &&
          head_.load(std::memory_order_seq_cst) == prev_req) {
        Node* expected = prev_req;
        head_.compare_exchange_strong(expected, marker,
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed);
      }
      retire_limbo_[tid].nodes.push_back(prev_req);
    }
    // Retire every deferred node the head has provably passed (it can
    // never become the sentinel again: we hold it unfreed, so its address
    // cannot recycle into the chain).
    auto& limbo = retire_limbo_[tid].nodes;
    Node* current_head = head_.load(std::memory_order_seq_cst);
    for (std::size_t i = 0; i < limbo.size();) {
      if (limbo[i] != current_head) {
        tracker_.retire(limbo[i], tid);
        limbo[i] = limbo.back();
        limbo.pop_back();
      } else {
        ++i;
      }
    }
    while (deqhelp_[tid].load(std::memory_order_seq_cst) == marker)
      dequeue_round(tid);
    Node* result = deqhelp_[tid].load(std::memory_order_seq_cst);
    CRTURN_EV("result", util::is_marked(as_word(result)) ? 0 : result->value,
              tid, as_word(result), as_word(marker));
    std::optional<V> out;
    // Tag bit set = "queue was empty"; otherwise `result` is the consumed
    // node, alive until this thread's next dequeue retires it.
    if (!util::is_marked(as_word(result))) out = result->value;
    tracker_.end_op(tid);
    return out;
  }

  /// Quiescent length (test helper).
  std::size_t size_unsafe() const noexcept {
    std::size_t count = 0;
    const Node* n = head_.load(std::memory_order_acquire);
    n = n->next.load(std::memory_order_acquire);
    while (n != nullptr) {
      ++count;
      n = n->next.load(std::memory_order_acquire);
    }
    return count;
  }

 private:
  struct Node : reclaim::Block {
    Node(const V& v, unsigned etid) : value(v), enq_tid(etid) {}
    V value;
    const unsigned enq_tid;
    /// Dequeue claim: 0 = unclaimed, else pack_claim(tid, seq) naming the
    /// request generation this node is owed to.
    std::atomic<std::uint64_t> claim{0};
    std::atomic<Node*> next{nullptr};
  };

  /// Claim encoding: tid+1 in the low 16 bits (so 0 stays "unclaimed"),
  /// generation sequence above.
  static std::uint64_t pack_claim(unsigned tid, std::uint64_t seq) noexcept {
    return (seq << 16) | (tid + 1);
  }
  static unsigned claim_tid(std::uint64_t c) noexcept {
    return static_cast<unsigned>(c & 0xffffu) - 1;
  }
  static std::uint64_t claim_seq(std::uint64_t c) noexcept { return c >> 16; }

  static constexpr unsigned kSlotAnchor = 0;
  static constexpr unsigned kSlotNext = 1;
  static constexpr unsigned kSlotReq = 2;

  static std::uintptr_t as_word(Node* p) noexcept {
    return reinterpret_cast<std::uintptr_t>(p);
  }
  static Node* load_ptr(const std::atomic<Node*>& slot) noexcept {
    return util::unpack_ptr<Node>(
        as_word(slot.load(std::memory_order_relaxed)));
  }
  static bool seen(const std::vector<Node*>& v, Node* p) noexcept {
    for (Node* q : v)
      if (q == p) return true;
    return false;
  }

  // ---- enqueue helping ----

  void enqueue_round(unsigned tid) {
    Node* ltail = tracker_.protect(tail_, kSlotAnchor, tid, nullptr);
    if (tail_.load(std::memory_order_seq_cst) != ltail) return;
    Node* lnext = tracker_.protect(ltail->next, kSlotNext, tid, ltail);
    // The reservation on lnext holds only if ltail was still the tail (so
    // lnext still in-queue) when it was read.
    if (tail_.load(std::memory_order_seq_cst) != ltail) return;
    if (lnext != nullptr) {  // lagging tail
      // INVARIANT: a request slot is cleared before any tail advance to
      // its node.  Otherwise a serving scan could pick an already-linked
      // node out of a stale slot and link it a second time (a cycle).
      clear_request_of(lnext, tid);
      tail_.compare_exchange_strong(ltail, lnext, std::memory_order_seq_cst,
                                    std::memory_order_relaxed);
      return;
    }
    // The tail node's own request must be cleared before serving others,
    // otherwise it could be picked and linked a second time.
    const unsigned anchor = clear_served_request(ltail, tid);
    for (unsigned j = 1; j <= n_; ++j) {
      const unsigned k = (anchor + j) % n_;
      Node* req = tracker_.protect(enqueuers_[k], kSlotReq, tid, nullptr);
      if (req == nullptr) continue;
      if (req == ltail) {  // races with clear_served_request
        enqueuers_[k].compare_exchange_strong(req, nullptr,
                                              std::memory_order_seq_cst,
                                              std::memory_order_relaxed);
        continue;
      }
      if (tail_.load(std::memory_order_seq_cst) != ltail) return;
      Node* expected = nullptr;
      if (ltail->next.compare_exchange_strong(expected, req,
                                              std::memory_order_seq_cst,
                                              std::memory_order_relaxed)) {
        // A failed CAS overwrites its expected argument, so clear the slot
        // through a copy: `req` must still name the linked node when the
        // tail is swung to it below.
        Node* served = req;
        enqueuers_[k].compare_exchange_strong(served, nullptr,
                                              std::memory_order_seq_cst,
                                              std::memory_order_relaxed);
        tail_.compare_exchange_strong(ltail, req, std::memory_order_seq_cst,
                                      std::memory_order_relaxed);
      }
      return;
    }
  }

  /// If `node`'s (already-served) enqueue request is still published,
  /// clear it.
  void clear_request_of(Node* node, unsigned tid) {
    const unsigned etid = node->enq_tid;
    if (etid == kNoThread) return;  // initial sentinel
    Node* r = tracker_.protect(enqueuers_[etid], kSlotReq, tid, nullptr);
    if (r == node) {
      enqueuers_[etid].compare_exchange_strong(r, nullptr,
                                               std::memory_order_seq_cst,
                                               std::memory_order_relaxed);
    }
  }

  /// Belt-and-braces slot clear for the node already AT the tail (races
  /// where the tail CAS landed before the slot clear).  Returns the turn
  /// anchor.
  unsigned clear_served_request(Node* ltail, unsigned tid) {
    if (ltail->enq_tid == kNoThread) return n_ - 1;  // initial sentinel
    clear_request_of(ltail, tid);
    return ltail->enq_tid;
  }

  // ---- dequeue helping ----

  void dequeue_round(unsigned tid) {
    Node* lhead = tracker_.protect(head_, kSlotAnchor, tid, nullptr);
    if (head_.load(std::memory_order_seq_cst) != lhead) return;
    Node* lnext = tracker_.protect(lhead->next, kSlotNext, tid, lhead);
    if (head_.load(std::memory_order_seq_cst) != lhead) return;

    if (lnext == nullptr) {
      answer_empty(lhead, tid);
      return;
    }
    // Claim the successor for a pending request generation, turn order
    // anchored at the generation that consumed the current head.
    std::uint64_t claim = lnext->claim.load(std::memory_order_seq_cst);
    if (claim == 0) {
      const std::uint64_t want = pick_pending(lhead);
      if (want == 0) return;  // nobody is dequeuing
      std::uint64_t expected = 0;
      if (lnext->claim.compare_exchange_strong(expected, want,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed))
        CRTURN_EV("claim", lnext->value, want, as_word(lnext));
      claim = lnext->claim.load(std::memory_order_seq_cst);
    }
    resolve_claim(lhead, lnext, claim, tid);
  }

  /// Deliver lnext to its claiming generation, advance head once it was
  /// delivered, or — when the claiming generation is provably dead and
  /// the node undelivered — re-claim it for a live request.
  void resolve_claim(Node* lhead, Node* lnext, std::uint64_t claim,
                     unsigned tid) {
    const unsigned ctid = claim_tid(claim);
    const std::uint64_t cseq = claim_seq(claim);
    // The expected marker is protected, so it cannot be recycled under
    // us; markers are per-operation unique, so this CAS succeeds at most
    // once per generation.
    Node* marker = tracker_.protect(deqhelp_[ctid], kSlotReq, tid, nullptr);
    const bool generation_alive =
        deqseq_[ctid].load(std::memory_order_seq_cst) == cseq &&
        deqself_[ctid].load(std::memory_order_seq_cst) == marker;
    if (generation_alive && head_.load(std::memory_order_seq_cst) == lhead) {
      if (deqhelp_[ctid].compare_exchange_strong(marker, lnext,
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed))
        CRTURN_EV("deliver", lnext->value, claim, as_word(lnext), as_word(marker));
    }
    // Delivered — now (deqhelp) or one generation ago (lnext became the
    // next op's marker in deqself)?  Then the head may pass it.
    if (deqhelp_[ctid].load(std::memory_order_seq_cst) == lnext ||
        deqself_[ctid].load(std::memory_order_seq_cst) == lnext) {
      // INVARIANT: lnext's enqueue-request slot is cleared before the
      // head passes it (it may still be armed when the tail lags behind
      // the head).  Once consumed the node heads for retirement, and a
      // slot that can name retired nodes would let stale scanners act on
      // recycled addresses — observed as lost enqueues.
      clear_request_of(lnext, tid);
      // INVARIANT: the tail never falls behind the head (Michael-Scott
      // discipline).  Otherwise tail_ could keep naming a consumed node
      // after its deferred retirement, and enqueuers would protect — and
      // link onto — freed memory.
      Node* ltail = tail_.load(std::memory_order_seq_cst);
      if (ltail == lhead) {
        tail_.compare_exchange_strong(ltail, lnext, std::memory_order_seq_cst,
                                      std::memory_order_relaxed);
      }
      {
        Node* exp_h = lhead;
        if (head_.compare_exchange_strong(exp_h, lnext, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
          CRTURN_EV("advance", lnext->value, claim, as_word(lnext),
                    deqhelp_[ctid].load(std::memory_order_relaxed) == lnext ? 1 : 2);
      }
      return;
    }
    // Undelivered.  If the claiming generation is dead (sequence moved
    // on, or its request completed — necessarily with an "empty" answer,
    // since lnext was not delivered), no in-flight delivery for it can
    // succeed any more: its completion marker has been consumed and
    // markers never repeat.  Hand the node to a live request instead.
    const bool generation_dead =
        deqseq_[ctid].load(std::memory_order_seq_cst) != cseq ||
        deqself_[ctid].load(std::memory_order_seq_cst) !=
            deqhelp_[ctid].load(std::memory_order_seq_cst);
    if (generation_dead) {
      const std::uint64_t next_claim = pick_pending(lhead);
      if (next_claim != 0 && next_claim != claim) {
        std::uint64_t exp_c = claim;
        if (lnext->claim.compare_exchange_strong(exp_c, next_claim,
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed))
          CRTURN_EV("reclaim", lnext->value, claim, next_claim, as_word(lnext));
      }
    }
    // Otherwise the generation is alive and a future round delivers it.
  }

  /// Queue observed empty at lhead: answer the next pending request with
  /// the tagged head node (tag bit = "empty", value never dereferenced).
  void answer_empty(Node* lhead, unsigned tid) {
    const std::uint64_t req = pick_pending(lhead);
    if (req == 0) return;
    const unsigned rtid = claim_tid(req);
    Node* marker = tracker_.protect(deqhelp_[rtid], kSlotReq, tid, nullptr);
    if (deqseq_[rtid].load(std::memory_order_seq_cst) != claim_seq(req) ||
        deqself_[rtid].load(std::memory_order_seq_cst) != marker) {
      return;
    }
    // Re-validate emptiness as late as possible; the linearization point
    // is this validated-empty instant.
    if (head_.load(std::memory_order_seq_cst) != lhead ||
        lhead->next.load(std::memory_order_seq_cst) != nullptr) {
      return;
    }
    // The answer must differ from the current marker or the owner could
    // never observe completion (consecutive empty answers at the same
    // head would be identical); the second tag bit alternates to keep
    // successive answers distinct.
    const std::uintptr_t base = as_word(lhead) | util::kMarkBit;
    const std::uintptr_t answer =
        as_word(marker) == base ? (base | util::kTagBit) : base;
    Node* tagged = reinterpret_cast<Node*>(answer);
    if (deqhelp_[rtid].compare_exchange_strong(marker, tagged,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed))
      CRTURN_EV("empty", 0, req, as_word(lhead), as_word(marker));
  }

  /// First request generation in turn order (after the head's consumer)
  /// that is open, as a packed claim; 0 when nobody is dequeuing.  Pure
  /// word reads; no dereferences of other threads' markers.
  std::uint64_t pick_pending(Node* lhead) noexcept {
    const std::uint64_t consumed = lhead->claim.load(std::memory_order_seq_cst);
    const unsigned anchor = consumed == 0 ? n_ - 1 : claim_tid(consumed);
    for (unsigned j = 1; j <= n_; ++j) {
      const unsigned k = (anchor + j) % n_;
      // Sequence read first: pairing a stale (smaller) sequence with a
      // newer pending state yields a dead claim, which resolvers detect
      // and re-assign — never a lost node.
      const std::uint64_t seq = deqseq_[k].load(std::memory_order_seq_cst);
      if (deqself_[k].load(std::memory_order_seq_cst) ==
          deqhelp_[k].load(std::memory_order_seq_cst)) {
        return pack_claim(k, seq);
      }
    }
    return 0;
  }

  Tracker& tracker_;
  const unsigned n_;
  reclaim::detail::PerThread<std::atomic<Node*>> enqueuers_;
  reclaim::detail::PerThread<std::atomic<Node*>> deqself_;
  reclaim::detail::PerThread<std::atomic<Node*>> deqhelp_;
  reclaim::detail::PerThread<std::atomic<std::uint64_t>> deqseq_;
  struct Limbo {
    std::vector<Node*> nodes;  ///< consumed, awaiting head to pass them
  };
  reclaim::detail::PerThread<Limbo> retire_limbo_;
  Node* initial_sentinel_{nullptr};
  alignas(util::kFalseSharingRange) std::atomic<Node*> head_{nullptr};
  alignas(util::kFalseSharingRange) std::atomic<Node*> tail_{nullptr};
};

}  // namespace wfe::ds
