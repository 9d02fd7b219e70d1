#include "util/seq_set.h"

#include <algorithm>
#include <sstream>

#include "util/assert.h"
#include "util/bytes.h"

namespace rbcast::util {

bool operator==(const SeqSet& a, const SeqSet& b) {
  return a.pruned_below_ == b.pruned_below_ &&
         (a.rep_ == b.rep_ || std::ranges::equal(a.intervals(), b.intervals()));
}

SeqSet::Block* SeqSet::allocate(std::size_t capacity) {
  static_assert(sizeof(Block) % alignof(Interval) == 0);
  const std::size_t bytes = sizeof(Block) + capacity * sizeof(Interval);
  return new (::operator new(bytes)) Block{1, 0, capacity};
}

void SeqSet::release() noexcept {
  if (rep_ != nullptr && --rep_->refs == 0) ::operator delete(rep_);
  rep_ = nullptr;
}

SeqSet::Interval* SeqSet::reallocate(std::size_t min_capacity) {
  // A clone keeps the shared block's headroom; a grow doubles it.
  std::size_t capacity = min_capacity;
  if (rep_ != nullptr) {
    capacity = std::max(capacity, rep_->refs == 1 ? 2 * rep_->capacity
                                                  : rep_->capacity);
  }
  Block* fresh = allocate(capacity);
  fresh->size = size();
  std::copy_n(data(), fresh->size, fresh->intervals());
  release();
  rep_ = fresh;
  return rep_->intervals();
}

void SeqSet::splice(std::size_t first, std::size_t last, Interval iv) {
  const std::size_t n = size();
  const std::size_t new_size = n - (last - first) + 1;
  Interval* d = writable(new_size);
  if (last == first) {
    std::copy_backward(d + first, d + n, d + n + 1);
  } else {
    std::copy(d + last, d + n, d + first + 1);
  }
  d[first] = iv;
  rep_->size = new_size;
}

SeqSet SeqSet::contiguous(Seq n) {
  SeqSet s;
  if (n >= 1) s.insert_range(1, n);
  return s;
}

SeqSet SeqSet::of(std::initializer_list<Seq> seqs) {
  SeqSet s;
  for (Seq q : seqs) s.insert(q);
  return s;
}

bool SeqSet::insert(Seq seq) {
  RBCAST_ASSERT_MSG(seq >= 1, "sequence numbers start at 1");
  RBCAST_ASSERT_MSG(seq <= kMaxSeq, "sequence number above ceiling");
  if (seq <= pruned_below_) return false;

  // First interval with hi >= seq - 1 can absorb or abut seq.
  const auto ivs = intervals();
  const auto i = static_cast<std::size_t>(
      std::lower_bound(ivs.begin(), ivs.end(), seq,
                       [](const Interval& iv, Seq q) { return iv.hi + 1 < q; }) -
      ivs.begin());
  if (i == ivs.size()) {
    splice(i, i, Interval{seq, seq});
    return true;
  }
  const Interval at = ivs[i];
  if (at.lo <= seq && seq <= at.hi) return false;  // already present
  if (at.hi + 1 == seq) {
    // Extend upward; may merge with the next interval.
    if (i + 1 < ivs.size() && ivs[i + 1].lo == seq + 1) {
      splice(i, i + 2, Interval{at.lo, ivs[i + 1].hi});
    } else {
      writable(ivs.size())[i].hi = seq;
    }
  } else if (seq + 1 == at.lo) {
    // Extend downward; cannot merge with the previous interval, whose
    // hi + 1 < seq by the search.
    writable(ivs.size())[i].lo = seq;
  } else {
    splice(i, i, Interval{seq, seq});
  }
  return true;
}

void SeqSet::insert_range(Seq lo, Seq hi) {
  RBCAST_ASSERT_MSG(lo >= 1 && lo <= hi, "insert_range requires 1 <= lo <= hi");
  RBCAST_ASSERT_MSG(hi <= kMaxSeq, "sequence number above ceiling");
  if (hi <= pruned_below_) return;
  lo = std::max<Seq>(lo, pruned_below_ + 1);

  // One splice: [first, last) is the run of intervals that [lo, hi] overlaps
  // or abuts (they all coalesce with it into a single interval).
  const auto ivs = intervals();
  const auto first = static_cast<std::size_t>(
      std::lower_bound(ivs.begin(), ivs.end(), lo,
                       [](const Interval& iv, Seq q) { return iv.hi + 1 < q; }) -
      ivs.begin());
  std::size_t last = first;
  Interval joined{lo, hi};
  while (last < ivs.size() && ivs[last].lo <= hi + 1) {
    joined.lo = std::min<Seq>(joined.lo, ivs[last].lo);
    joined.hi = std::max<Seq>(joined.hi, ivs[last].hi);
    ++last;
  }
  if (last == first + 1 && ivs[first] == joined) return;  // already contained
  splice(first, last, joined);
}

void SeqSet::merge(const SeqSet& other) {
  if (other.size() == 0) {
    prune_below(other.pruned_below_);
    return;
  }
  // A higher watermark is only raised here: the walk below drops and
  // clamps our intervals against it, so no separate prune splices (and, on
  // a shared block, clones) ahead of the walk's own write. Our intervals
  // [0, k) lie wholly at or below it.
  std::size_t k = 0;
  if (other.pruned_below_ > pruned_below_) {
    pruned_below_ = other.pruned_below_;
    const auto ours = intervals();
    k = static_cast<std::size_t>(
        std::partition_point(ours.begin(), ours.end(),
                             [this](const Interval& iv) {
                               return iv.hi <= pruned_below_;
                             }) -
        ours.begin());
  }
  // Covers s.merge(s) and copies of s: identical intervals add nothing,
  // and they all lie above other's watermark.
  if (rep_ == other.rep_) return;
  // When none survive, the union is exactly `other`. Share its block
  // unless we own one: an exclusive block is refilled below without
  // allocating, where sharing would make our next write clone.
  if (k == size() && pruned_below_ == other.pruned_below_ &&
      (rep_ == nullptr || rep_->refs > 1)) {
    *this = other;
    return;
  }

  // In-place linear two-pointer union. Our n surviving intervals are
  // parked at the back of a block of n + m slots; the union is then
  // written forward from the front, repeatedly taking the lower-starting
  // interval from either input and coalescing it onto the output tail.
  // Each output interval consumes at least one input, so the write cursor
  // never passes the read cursor `a` — no scratch buffer, and no
  // allocation at all once the capacity covers n + m and the block is
  // ours alone.
  const std::size_t n = size() - k;
  const std::size_t m = other.size();
  Interval* const d = writable(n + m);
  if (k < m) {
    std::copy_backward(d + k, d + k + n, d + m + n);
  } else if (k > m) {
    std::copy(d + k, d + k + n, d + m);
  }
  const Interval* a = d + m;
  const Interval* const a_end = d + n + m;
  const Interval* b = other.data();
  const Interval* const b_end = b + m;
  Interval* out = d;  // one past the output tail
  const auto append = [&](Interval iv) {
    if (iv.hi <= pruned_below_) return;
    iv.lo = std::max<Seq>(iv.lo, pruned_below_ + 1);
    if (out != d && iv.lo <= (out - 1)->hi + 1) {
      (out - 1)->hi = std::max<Seq>((out - 1)->hi, iv.hi);
    } else {
      *out++ = iv;
    }
  };
  while (a != a_end || b != b_end) {
    if (b == b_end || (a != a_end && a->lo <= b->lo)) {
      append(*a++);
    } else {
      append(*b++);
    }
  }
  rep_->size = static_cast<std::size_t>(out - d);
}

bool SeqSet::contains(Seq seq) const {
  if (seq == 0) return false;
  if (seq <= pruned_below_) return true;
  const auto ivs = intervals();
  auto it = std::lower_bound(
      ivs.begin(), ivs.end(), seq,
      [](const Interval& iv, Seq q) { return iv.hi < q; });
  return it != ivs.end() && it->lo <= seq;
}

bool SeqSet::empty() const { return pruned_below_ == 0 && size() == 0; }

Seq SeqSet::max_seq() const {
  if (size() != 0) return data()[size() - 1].hi;
  return pruned_below_;
}

std::uint64_t SeqSet::count() const {
  std::uint64_t n = pruned_below_;
  for (const Interval& iv : intervals()) n += iv.hi - iv.lo + 1;
  return n;
}

Seq SeqSet::contiguous_prefix() const {
  if (size() == 0) return pruned_below_;
  const Interval& first = data()[0];
  if (first.lo == pruned_below_ + 1) return first.hi;
  return pruned_below_;
}

std::vector<Seq> SeqSet::gaps(std::size_t limit) const {
  // Interval walk: each hole between consecutive intervals is materialized
  // directly, so the cost is O(intervals + output), never O(max_seq).
  std::vector<Seq> out;
  if (limit == 0) return out;
  Seq cursor = pruned_below_ + 1;
  for (const Interval& iv : intervals()) {
    for (Seq q = cursor; q < iv.lo; ++q) {
      out.push_back(q);
      if (out.size() >= limit) return out;
    }
    cursor = iv.hi + 1;
  }
  return out;
}

std::vector<Seq> SeqSet::missing_from(const SeqSet& other,
                                      std::size_t limit) const {
  return missing_from_capped(other, max_seq(), limit);
}

std::vector<Seq> SeqSet::missing_from_capped(const SeqSet& other, Seq cap,
                                             std::size_t limit) const {
  std::vector<Seq> out;
  if (limit == 0) return out;
  for_each_missing(other, cap, [&](Seq q) {
    out.push_back(q);
    return out.size() < limit;
  });
  return out;
}

void SeqSet::prune_below(Seq watermark) {
  RBCAST_ASSERT_MSG(watermark <= kMaxSeq, "prune watermark above ceiling");
  if (watermark <= pruned_below_) return;
  pruned_below_ = watermark;
  // Intervals [0, k) lie wholly at or below the watermark and go; interval
  // k may need its low end raised.
  const auto ivs = intervals();
  const auto k = static_cast<std::size_t>(
      std::partition_point(
          ivs.begin(), ivs.end(),
          [watermark](const Interval& iv) { return iv.hi <= watermark; }) -
      ivs.begin());
  if (k == ivs.size()) {
    if (rep_ != nullptr && rep_->refs == 1) {
      rep_->size = 0;  // keep the capacity for the intervals still to come
    } else {
      release();
    }
    return;
  }
  if (k == 0 && ivs[0].lo > watermark) return;  // nothing at or below it
  splice(0, k + 1,
         Interval{std::max<Seq>(ivs[k].lo, watermark + 1), ivs[k].hi});
}

std::string SeqSet::encode() const {
  std::string out;
  out.reserve(wire_size());
  encode_to(out);
  return out;
}

void SeqSet::encode_to(std::string& out) const {
  const std::size_t start = out.size();
  put_u64(out, pruned_below_);
  for (const Interval& iv : intervals()) {
    put_u64(out, iv.lo);
    put_u64(out, iv.hi);
  }
  RBCAST_ASSERT(out.size() - start == wire_size());
}

std::optional<SeqSet> SeqSet::decode(std::string_view bytes) {
  if (bytes.size() < 8 || (bytes.size() - 8) % 16 != 0) return std::nullopt;

  ByteReader r(bytes);
  SeqSet out;
  // An absurd watermark (e.g. UINT64_MAX) would make every later
  // pruned_below_ + 1 / count() / contiguous_prefix() computation wrap;
  // nothing legitimate ever gets near the ceiling, so reject outright.
  if (!r.take_u64(out.pruned_below_) || out.pruned_below_ > kMaxSeq) {
    return std::nullopt;
  }
  const std::size_t count = r.remaining() / 16;
  if (count == 0) return out;
  Interval* const ivs = out.writable(count);
  Seq prev_hi = out.pruned_below_;
  for (std::size_t i = 0; i < count; ++i) {
    Seq lo = 0;
    Seq hi = 0;
    if (!r.take_u64(lo) || !r.take_u64(hi)) return std::nullopt;
    // Enforce the class invariants on untrusted input: ordered, maximal,
    // non-overlapping intervals strictly above the watermark, below the
    // arithmetic-safety ceiling.
    if (lo < 1 || lo > hi || hi > kMaxSeq) return std::nullopt;
    if (lo <= out.pruned_below_) return std::nullopt;
    if (i > 0 && lo <= prev_hi + 1) return std::nullopt;
    prev_hi = hi;
    ivs[i] = Interval{lo, hi};
  }
  out.rep_->size = count;
  return out;
}

std::string SeqSet::to_string() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  if (pruned_below_ > 0) {
    os << "1.." << pruned_below_ << "(pruned)";
    first = false;
  }
  for (const Interval& iv : intervals()) {
    if (!first) os << ',';
    first = false;
    if (iv.lo == iv.hi) {
      os << iv.lo;
    } else {
      os << iv.lo << ".." << iv.hi;
    }
  }
  os << '}';
  return os.str();
}

void SeqSet::check_invariants() const {
  Seq prev_hi = pruned_below_;
  bool first = true;
  for (const Interval& iv : intervals()) {
    RBCAST_ASSERT(iv.lo >= 1 && iv.lo <= iv.hi && iv.hi <= kMaxSeq);
    RBCAST_ASSERT(iv.lo > pruned_below_);
    if (!first) RBCAST_ASSERT_MSG(iv.lo > prev_hi + 1, "intervals must be maximal");
    first = false;
    prev_hi = iv.hi;
  }
}

}  // namespace rbcast::util
