#include "util/seq_set.h"

#include <algorithm>
#include <sstream>

#include "util/assert.h"

namespace rbcast::util {

SeqSet SeqSet::contiguous(Seq n) {
  SeqSet s;
  if (n >= 1) s.insert_range(1, n);
  return s;
}

SeqSet SeqSet::of(std::initializer_list<Seq> seqs) {
  SeqSet s;
  for (Seq q : seqs) s.insert(q);  // analyze:allow(hot-alloc) test-only convenience constructor, never on the event path
  return s;
}

bool SeqSet::insert(Seq seq) {
  RBCAST_ASSERT_MSG(seq >= 1, "sequence numbers start at 1");
  RBCAST_ASSERT_MSG(seq <= kMaxSeq, "sequence number above ceiling");
  if (seq <= pruned_below_) return false;

  // First interval with hi >= seq - 1 can absorb or abut seq.
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), seq,
      [](const Interval& iv, Seq q) { return iv.hi + 1 < q; });

  if (it != intervals_.end() && it->lo <= seq && seq <= it->hi) {
    return false;  // already present
  }

  if (it != intervals_.end() && it->hi + 1 == seq) {
    // Extend *it upward; may merge with the next interval.
    it->hi = seq;
    auto next = it + 1;
    if (next != intervals_.end() && next->lo == seq + 1) {
      it->hi = next->hi;
      intervals_.erase(next);
    }
    return true;
  }
  if (it != intervals_.end() && seq + 1 == it->lo) {
    it->lo = seq;  // extend downward; cannot merge with previous (checked above)
    return true;
  }
  intervals_.insert(it, Interval{seq, seq});  // analyze:allow(hot-alloc) interval-vector splice, amortized O(1) per new gap edge
  return true;
}

void SeqSet::insert_range(Seq lo, Seq hi) {
  RBCAST_ASSERT_MSG(lo >= 1 && lo <= hi, "insert_range requires 1 <= lo <= hi");
  RBCAST_ASSERT_MSG(hi <= kMaxSeq, "sequence number above ceiling");
  if (hi <= pruned_below_) return;
  lo = std::max<Seq>(lo, pruned_below_ + 1);

  // One splice: [first, last) is the run of intervals that [lo, hi] overlaps
  // or abuts (they all coalesce with it into a single interval).
  auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), lo,
      [](const Interval& iv, Seq q) { return iv.hi + 1 < q; });
  auto last = first;
  Seq new_lo = lo;
  Seq new_hi = hi;
  while (last != intervals_.end() && last->lo <= hi + 1) {
    new_lo = std::min<Seq>(new_lo, last->lo);
    new_hi = std::max<Seq>(new_hi, last->hi);
    ++last;
  }
  if (first == last) {
    intervals_.insert(first, Interval{new_lo, new_hi});  // analyze:allow(hot-alloc) interval-vector splice, amortized O(1) per new gap edge
  } else {
    first->lo = new_lo;
    first->hi = new_hi;
    intervals_.erase(first + 1, last);
  }
}

void SeqSet::merge(const SeqSet& other) {
  if (&other == this) return;  // s ∪ s == s; the walk below needs two inputs
  if (other.pruned_below_ > pruned_below_) prune_below(other.pruned_below_);
  if (other.intervals_.empty()) return;

  // In-place linear two-pointer union. Our n intervals are parked at the
  // back of a vector of n + m slots; the union is then written forward from
  // the front, repeatedly taking the lower-starting interval from either
  // input and coalescing it onto the output tail. Each output interval
  // consumes at least one input, so the write cursor never passes the read
  // cursor `a` — no scratch vector, and no allocation at all once the
  // capacity covers n + m.
  const std::size_t n = intervals_.size();
  const std::size_t m = other.intervals_.size();
  intervals_.resize(n + m);  // analyze:allow(hot-alloc) grows capacity only when n + m exceeds it; amortized away in steady state
  std::move_backward(intervals_.begin(),
                     intervals_.begin() + static_cast<std::ptrdiff_t>(n),
                     intervals_.end());
  auto a = intervals_.begin() + static_cast<std::ptrdiff_t>(m);
  auto b = other.intervals_.cbegin();
  auto out = intervals_.begin();  // one past the output tail
  const auto append = [&](Interval iv) {
    if (iv.hi <= pruned_below_) return;
    iv.lo = std::max<Seq>(iv.lo, pruned_below_ + 1);
    if (out != intervals_.begin() && iv.lo <= (out - 1)->hi + 1) {
      (out - 1)->hi = std::max<Seq>((out - 1)->hi, iv.hi);
    } else {
      *out++ = iv;
    }
  };
  while (a != intervals_.end() || b != other.intervals_.cend()) {
    if (b == other.intervals_.cend() ||
        (a != intervals_.end() && a->lo <= b->lo)) {
      append(*a++);
    } else {
      append(*b++);
    }
  }
  intervals_.erase(out, intervals_.end());
}

bool SeqSet::contains(Seq seq) const {
  if (seq == 0) return false;
  if (seq <= pruned_below_) return true;
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), seq,
      [](const Interval& iv, Seq q) { return iv.hi < q; });
  return it != intervals_.end() && it->lo <= seq;
}

bool SeqSet::empty() const {
  return pruned_below_ == 0 && intervals_.empty();
}

Seq SeqSet::max_seq() const {
  if (!intervals_.empty()) return intervals_.back().hi;
  return pruned_below_;
}

std::uint64_t SeqSet::count() const {
  std::uint64_t n = pruned_below_;
  for (const Interval& iv : intervals_) n += iv.hi - iv.lo + 1;
  return n;
}

Seq SeqSet::contiguous_prefix() const {
  if (intervals_.empty()) return pruned_below_;
  const Interval& first = intervals_.front();
  if (first.lo == pruned_below_ + 1) return first.hi;
  return pruned_below_;
}

std::vector<Seq> SeqSet::gaps(std::size_t limit) const {
  // Interval walk: each hole between consecutive intervals is materialized
  // directly, so the cost is O(intervals + output), never O(max_seq).
  std::vector<Seq> out;
  if (limit == 0) return out;
  Seq cursor = pruned_below_ + 1;
  for (const Interval& iv : intervals_) {
    for (Seq q = cursor; q < iv.lo; ++q) {
      out.push_back(q);  // analyze:allow(hot-alloc) query API returns a fresh bounded vector; limit caps growth
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
  // Everything <= other's prune watermark is contained there by convention.
  const Seq floor = other.pruned_below_;
  // Interval walk with a monotone cursor into other's intervals: covered
  // stretches are skipped in one step, so the cost is O(intervals(this) +
  // intervals(other) + output) instead of one contains() probe per element.
  auto ot = other.intervals_.cbegin();
  for (const Interval& iv : intervals_) {
    if (iv.lo > cap) break;
    const Seq hi = std::min<Seq>(iv.hi, cap);
    Seq q = std::max<Seq>(iv.lo, floor + 1);
    while (q <= hi) {
      while (ot != other.intervals_.cend() && ot->hi < q) ++ot;
      if (ot != other.intervals_.cend() && ot->lo <= q) {
        q = ot->hi + 1;  // covered by other: jump past its interval
        continue;
      }
      Seq run_hi = hi;
      if (ot != other.intervals_.cend()) {
        run_hi = std::min<Seq>(run_hi, ot->lo - 1);
      }
      for (; q <= run_hi; ++q) {
        out.push_back(q);  // analyze:allow(hot-alloc) query API returns a fresh bounded vector; limit caps growth
        if (out.size() >= limit) return out;
      }
    }
  }
  // Note: elements of *this* below our own watermark are all <= floor
  // candidates only when other.pruned_below_ < pruned_below_; those are by
  // definition safe at all hosts, so never worth offering.
  return out;
}

void SeqSet::prune_below(Seq watermark) {
  RBCAST_ASSERT_MSG(watermark <= kMaxSeq, "prune watermark above ceiling");
  if (watermark <= pruned_below_) return;
  pruned_below_ = watermark;
  auto it = intervals_.begin();
  while (it != intervals_.end()) {
    if (it->hi <= watermark) {
      it = intervals_.erase(it);
    } else {
      if (it->lo <= watermark) it->lo = watermark + 1;
      ++it;
    }
  }
}

namespace {

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

std::vector<std::uint8_t> SeqSet::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(wire_size());  // analyze:allow(hot-alloc) exact-size reserve; wire encode runs on the control path, not the event loop
  // Header packs the watermark (56 bits are plenty for sequence numbers)
  // with the interval count in the top byte's... keep it simple and
  // explicit instead: watermark, then one [lo, hi] pair per interval.
  // The interval count is implied by the buffer length.
  put_u64(out, pruned_below_);
  for (const Interval& iv : intervals_) {
    put_u64(out, iv.lo);
    put_u64(out, iv.hi);
  }
  RBCAST_ASSERT(out.size() == wire_size());
  return out;
}

std::optional<SeqSet> SeqSet::decode(const std::uint8_t* data,
                                     std::size_t size) {
  if (data == nullptr && size > 0) return std::nullopt;
  if (size < 8 || (size - 8) % 16 != 0) return std::nullopt;

  SeqSet out;
  out.pruned_below_ = get_u64(data);
  // An absurd watermark (e.g. UINT64_MAX) would make every later
  // pruned_below_ + 1 / count() / contiguous_prefix() computation wrap;
  // nothing legitimate ever gets near the ceiling, so reject outright.
  if (out.pruned_below_ > kMaxSeq) return std::nullopt;
  const std::size_t count = (size - 8) / 16;
  Seq prev_hi = out.pruned_below_;
  bool first = true;
  for (std::size_t i = 0; i < count; ++i) {
    const Seq lo = get_u64(data + 8 + 16 * i);
    const Seq hi = get_u64(data + 8 + 16 * i + 8);
    // Enforce the class invariants on untrusted input: ordered, maximal,
    // non-overlapping intervals strictly above the watermark, below the
    // arithmetic-safety ceiling.
    if (lo < 1 || lo > hi || hi > kMaxSeq) return std::nullopt;
    if (lo <= out.pruned_below_) return std::nullopt;
    if (!first && lo <= prev_hi + 1) return std::nullopt;
    first = false;
    prev_hi = hi;
    out.intervals_.push_back(Interval{lo, hi});  // analyze:allow(hot-alloc) decode builds a new set from the wire; control path only
  }
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
  for (const Interval& iv : intervals_) {
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
  for (const Interval& iv : intervals_) {
    RBCAST_ASSERT(iv.lo >= 1 && iv.lo <= iv.hi && iv.hi <= kMaxSeq);
    RBCAST_ASSERT(iv.lo > pruned_below_);
    if (!first) RBCAST_ASSERT_MSG(iv.lo > prev_hi + 1, "intervals must be maximal");
    first = false;
    prev_hi = iv.hi;
  }
}

}  // namespace rbcast::util
