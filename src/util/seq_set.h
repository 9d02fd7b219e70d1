// SeqSet: an interval-compressed set of message sequence numbers.
//
// This is the concrete representation of the paper's INFO sets: "for each
// host i, a set INFO_i contains the sequence numbers of all messages
// received by i" (Section 4.2). Because broadcast streams are mostly
// contiguous with occasional gaps, we store maximal closed intervals
// [lo, hi]; a fully caught-up host uses one interval regardless of stream
// length, and the serialized footprint (what INFO-exchange control messages
// carry) is proportional to the number of gaps, not the number of messages.
//
// The paper's partial order on INFO sets (Section 4.2) is exposed as
// SeqSet::less_than / SeqSet::max_equal:
//     A <  B  iff  max(A) < max(B)
//     A ~= B  iff  max(A) = max(B)
// with the convention that an empty set has maximum 0 (sequence numbers
// start at 1), which matches the paper's initial condition where a host
// that has seen nothing is dominated by every host that has seen anything.
//
// Pruning (Section 6: "INFO sets can be pruned of messages 1..n when it
// becomes known that all hosts have safely received them") is supported via
// prune_below(); pruned elements still count as contained.
//
// Storage is copy-on-write. The intervals live in one refcounted heap block
// (a small header followed by the Interval array); an empty set holds no
// block, unless pruning emptied a block it owns. Copying a set shares the block, so the INFO rounds that send
// the same set to every peer pay no interval copy per destination. The first
// mutation that actually changes the intervals of a shared block clones it
// with one allocation; a mutation that changes nothing (inserting a present
// seq, pruning below the lowest interval, merging an empty or identical set)
// never clones. A set that owns its block keeps it: pruning every interval
// away leaves the block empty but allocated, and the next merge refills it
// in place rather than adopting the other set's block (which the following
// write would have to clone back). The refcount is not atomic: a SeqSet and
// its copies must stay on one thread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rbcast::util {

// Broadcast data messages are numbered 1, 2, 3, ... by the source.
using Seq = std::uint64_t;

class SeqSet {
 public:
  // A maximal run [lo, hi] (inclusive) of contained sequence numbers.
  struct Interval {
    Seq lo{0};
    Seq hi{0};
    friend bool operator==(const Interval&, const Interval&) = default;
  };

  // Ceiling on any sequence number or prune watermark the set will hold.
  // Far above any real stream length, but low enough that hi + 1 and the
  // count()/contiguous_prefix() arithmetic can never wrap — decode()
  // rejects wire input above it rather than trusting the network.
  static constexpr Seq kMaxSeq = Seq{1} << 62;

  SeqSet() = default;
  // Copies share the block (inline: every message copy runs these).
  SeqSet(const SeqSet& other) noexcept
      : rep_(other.rep_), pruned_below_(other.pruned_below_) {
    if (rep_ != nullptr) ++rep_->refs;
  }
  SeqSet(SeqSet&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)),
        pruned_below_(other.pruned_below_) {}
  SeqSet& operator=(const SeqSet& other) noexcept {
    Block* const shared = other.rep_;  // before release(): other may be *this
    if (shared != nullptr) ++shared->refs;
    release();
    rep_ = shared;
    pruned_below_ = other.pruned_below_;
    return *this;
  }
  SeqSet& operator=(SeqSet&& other) noexcept {
    if (this != &other) {
      release();
      rep_ = std::exchange(other.rep_, nullptr);
      pruned_below_ = other.pruned_below_;
    }
    return *this;
  }
  ~SeqSet() {
    if (rep_ != nullptr) release();
  }

  // Constructs {1..n} — the INFO set of a host that has messages 1..n.
  static SeqSet contiguous(Seq n);

  // Constructs from an arbitrary list of elements (test convenience).
  static SeqSet of(std::initializer_list<Seq> seqs);

  // Inserts one sequence number. Returns true if it was newly added.
  // Precondition: 1 <= seq <= kMaxSeq.
  bool insert(Seq seq);

  // Inserts every element of [lo, hi] in one interval splice — O(log
  // intervals + intervals absorbed), independent of hi - lo.
  // Precondition: 1 <= lo <= hi <= kMaxSeq.
  void insert_range(Seq lo, Seq hi);

  // Union with another set: a linear two-pointer interval walk done in
  // place, O(intervals(this) + intervals(other)) regardless of element
  // counts. A higher watermark in `other` prunes this set within the same
  // walk. Allocates at most once, and only when the surviving
  // intervals(this) + intervals(other) exceed the current capacity or the
  // block is shared. s.merge(s), merging an empty set and merging a set
  // that shares this block change nothing beyond the watermark. When the
  // union is exactly `other` (none of ours lies above its watermark), a
  // set holding no block or a shared one shares other's block; a set
  // owning its block refills it in place instead.
  void merge(const SeqSet& other);

  [[nodiscard]] bool contains(Seq seq) const;

  // True iff no element was ever inserted (pruning does not make a
  // non-empty set empty: pruned elements remain contained).
  [[nodiscard]] bool empty() const;

  // Largest contained sequence number; 0 when empty. This is the max(.)
  // that the paper's < and ~= orders compare.
  [[nodiscard]] Seq max_seq() const;

  // Number of contained sequence numbers (including pruned ones).
  [[nodiscard]] std::uint64_t count() const;

  // Largest n such that every element of {1..n} is contained; 0 when the
  // set does not contain 1. Drives pruning: 1..n is the "safe prefix".
  [[nodiscard]] Seq contiguous_prefix() const;

  // --- The paper's partial order on INFO sets ---------------------------

  // this < other  iff  max(this) < max(other).
  [[nodiscard]] bool less_than(const SeqSet& other) const {
    return max_seq() < other.max_seq();
  }
  // this ~= other  iff  max(this) == max(other).
  [[nodiscard]] bool max_equal(const SeqSet& other) const {
    return max_seq() == other.max_seq();
  }

  // --- Gap queries (drive the gap-filling machinery, Section 4.4) ------

  // Sequence numbers missing from this set in [1, max_seq()] — the "gaps"
  // a host knows it has. At most `limit` results.
  [[nodiscard]] std::vector<Seq> gaps(std::size_t limit = SIZE_MAX) const;

  // Elements contained in *this but not in `other`, at most `limit` of
  // them, in increasing order. Used by a gap filler to decide which of its
  // messages a peer is missing.
  [[nodiscard]] std::vector<Seq> missing_from(const SeqSet& other,
                                              std::size_t limit = SIZE_MAX) const;

  // Like missing_from but only considers elements <= cap. Non-neighbor gap
  // filling must not push sequence numbers above the recipient's own max
  // (a host accepts *new* maxima only from its parent), so callers cap at
  // the recipient's max_seq().
  [[nodiscard]] std::vector<Seq> missing_from_capped(
      const SeqSet& other, Seq cap, std::size_t limit = SIZE_MAX) const;

  // The walk behind missing_from*: calls fn(q) for each q <= cap contained
  // in *this but not in `other`, in increasing order, until fn returns
  // false. Covered stretches are skipped in one step, so the cost is
  // O(intervals(this) + intervals(other) + calls), and it allocates
  // nothing — a caller that filters the elements builds only what it keeps.
  template <typename Fn>
  void for_each_missing(const SeqSet& other, Seq cap, Fn&& fn) const;

  // --- Pruning ----------------------------------------------------------

  // Declares every sequence number <= watermark as permanently contained
  // (safe at all hosts). Intervals at or below the watermark are released.
  void prune_below(Seq watermark);

  [[nodiscard]] Seq prune_watermark() const { return pruned_below_; }

  // --- Introspection ----------------------------------------------------

  // Maximal intervals above the prune watermark, in increasing order. The
  // view is valid until this set is next mutated, assigned or destroyed.
  [[nodiscard]] std::span<const Interval> intervals() const {
    return {data(), size()};
  }

  // Interval slots the block holds before the next mutation must grow it.
  [[nodiscard]] std::size_t capacity() const {
    return rep_ == nullptr ? 0 : rep_->capacity;
  }

  // True iff both sets read the same interval block (a copy not yet
  // mutated). Like Payload::shares_buffer_with, for tests and assertions.
  [[nodiscard]] bool shares_storage_with(const SeqSet& other) const {
    return rep_ != nullptr && rep_ == other.rep_;
  }

  // Approximate serialized size in bytes, for network accounting: the
  // watermark plus 16 bytes per interval.
  [[nodiscard]] std::size_t wire_size() const { return 8 + 16 * size(); }

  // --- wire codec ---------------------------------------------------------
  //
  // Real serialization (not just size accounting): the prune watermark,
  // then one [lo, hi] pair per interval, each a u64 little-endian
  // (util/bytes.h). There is no interval count: it is the byte length less
  // 8, over 16, so whoever carries the set must frame it (the message codec
  // length-prefixes it). encode()'s output length equals wire_size();
  // encode_to() appends the same bytes to `out`. decode() validates the
  // invariants and returns nullopt on malformed input — never trust the
  // network.
  [[nodiscard]] std::string encode() const;
  void encode_to(std::string& out) const;
  [[nodiscard]] static std::optional<SeqSet> decode(std::string_view bytes);

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const SeqSet& a, const SeqSet& b);

 private:
  // The shared storage: this header, then `capacity` Interval slots of
  // which the first `size` are live. `refs` counts the sets reading it.
  struct Block {
    std::size_t refs;
    std::size_t size;
    std::size_t capacity;
    [[nodiscard]] Interval* intervals() {
      return reinterpret_cast<Interval*>(this + 1);
    }
  };

  [[nodiscard]] const Interval* data() const {
    return rep_ == nullptr ? nullptr : rep_->intervals();
  }
  [[nodiscard]] std::size_t size() const {
    return rep_ == nullptr ? 0 : rep_->size;
  }

  // The only place interval storage is allocated (grow and clone alike).
  [[nodiscard]] static Block* allocate(std::size_t capacity);
  // Drops this set's reference; frees the block when it was the last.
  void release() noexcept;
  // Makes the block exclusively ours with room for `min_capacity` intervals
  // and returns it for writing. Inline: most writes find it so already.
  [[nodiscard]] Interval* writable(std::size_t min_capacity) {
    if (rep_ != nullptr && rep_->refs == 1 && rep_->capacity >= min_capacity) {
      return rep_->intervals();
    }
    return reallocate(min_capacity);
  }
  // writable()'s slow path: clones a shared block or grows a full one.
  [[nodiscard]] Interval* reallocate(std::size_t min_capacity);
  // Replaces intervals [first, last) with the single interval `iv`.
  void splice(std::size_t first, std::size_t last, Interval iv);

  // Invariants: intervals sorted by lo; non-overlapping; non-adjacent
  // (gap of at least one between consecutive intervals); every lo >= 1;
  // every interval lies strictly above pruned_below_.
  Block* rep_{nullptr};
  Seq pruned_below_{0};

  void check_invariants() const;
};

template <typename Fn>
void SeqSet::for_each_missing(const SeqSet& other, Seq cap, Fn&& fn) const {
  // Everything <= other's prune watermark is contained there by convention.
  // (Our own elements at or below it are safe at all hosts, so never worth
  // offering.)
  const Seq floor = other.pruned_below_;
  // A monotone cursor into other's intervals.
  const auto theirs = other.intervals();
  auto ot = theirs.begin();
  for (const Interval& iv : intervals()) {
    if (iv.lo > cap) return;
    const Seq hi = std::min<Seq>(iv.hi, cap);
    Seq q = std::max<Seq>(iv.lo, floor + 1);
    while (q <= hi) {
      while (ot != theirs.end() && ot->hi < q) ++ot;
      if (ot != theirs.end() && ot->lo <= q) {
        q = ot->hi + 1;  // covered by other: jump past its interval
        continue;
      }
      Seq run_hi = hi;
      if (ot != theirs.end()) run_hi = std::min<Seq>(run_hi, ot->lo - 1);
      for (; q <= run_hi; ++q) {
        if (!fn(q)) return;
      }
    }
  }
}

}  // namespace rbcast::util
