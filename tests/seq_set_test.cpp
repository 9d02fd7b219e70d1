// Unit tests for SeqSet — the representation of the paper's INFO sets.
#include "util/seq_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace rbcast::util {
namespace {

// The interval view copied out, so gtest can compare and print it.
std::vector<SeqSet::Interval> intervals_of(const SeqSet& s) {
  return {s.intervals().begin(), s.intervals().end()};
}

TEST(SeqSet, StartsEmpty) {
  SeqSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.max_seq(), 0u);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.gaps().empty());
}

TEST(SeqSet, InsertReportsNovelty) {
  SeqSet s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.contains(5));
  EXPECT_EQ(s.count(), 1u);
}

TEST(SeqSet, AdjacentInsertionsCoalesce) {
  SeqSet s;
  s.insert(3);
  s.insert(4);
  s.insert(2);
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.intervals()[0].lo, 2u);
  EXPECT_EQ(s.intervals()[0].hi, 4u);
}

TEST(SeqSet, BridgingInsertMergesTwoIntervals) {
  SeqSet s;
  s.insert(1);
  s.insert(3);
  ASSERT_EQ(s.intervals().size(), 2u);
  s.insert(2);
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.count(), 3u);
}

TEST(SeqSet, NonAdjacentInsertionsStaySeparate) {
  SeqSet s;
  s.insert(1);
  s.insert(5);
  s.insert(9);
  EXPECT_EQ(s.intervals().size(), 3u);
  EXPECT_EQ(s.max_seq(), 9u);
  EXPECT_EQ(s.count(), 3u);
}

TEST(SeqSet, ContiguousConstructor) {
  SeqSet s = SeqSet::contiguous(10);
  EXPECT_EQ(s.count(), 10u);
  EXPECT_EQ(s.max_seq(), 10u);
  EXPECT_TRUE(s.contains(1));
  EXPECT_TRUE(s.contains(10));
  EXPECT_FALSE(s.contains(11));
  EXPECT_EQ(s.intervals().size(), 1u);

  EXPECT_TRUE(SeqSet::contiguous(0).empty());
}

TEST(SeqSet, OfConstructor) {
  SeqSet s = SeqSet::of({7, 2, 2, 9});
  EXPECT_EQ(s.count(), 3u);
  EXPECT_TRUE(s.contains(2));
  EXPECT_TRUE(s.contains(7));
  EXPECT_TRUE(s.contains(9));
}

TEST(SeqSet, InsertRange) {
  SeqSet s;
  s.insert_range(3, 7);
  EXPECT_EQ(s.count(), 5u);
  s.insert_range(6, 10);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_EQ(s.intervals().size(), 1u);
}

TEST(SeqSet, MergeUnionsSets) {
  SeqSet a = SeqSet::of({1, 2, 5});
  SeqSet b = SeqSet::of({2, 3, 9});
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_TRUE(a.contains(3));
  EXPECT_TRUE(a.contains(9));
}

// --- the paper's partial order -----------------------------------------

TEST(SeqSet, PaperOrderComparesMaxima) {
  // A < B iff max(A) < max(B); note {5} > {1,2,3,4} despite fewer elements.
  SeqSet a = SeqSet::of({1, 2, 3, 4});
  SeqSet b = SeqSet::of({5});
  EXPECT_TRUE(a.less_than(b));
  EXPECT_FALSE(b.less_than(a));
  EXPECT_FALSE(a.max_equal(b));
}

TEST(SeqSet, PaperOrderMaxEqual) {
  SeqSet a = SeqSet::of({1, 3});
  SeqSet b = SeqSet::of({2, 3});
  EXPECT_TRUE(a.max_equal(b));
  EXPECT_FALSE(a.less_than(b));
}

TEST(SeqSet, EmptySetIsDominatedByAnyNonEmpty) {
  SeqSet empty;
  SeqSet one = SeqSet::of({1});
  EXPECT_TRUE(empty.less_than(one));
  EXPECT_TRUE(empty.max_equal(SeqSet{}));
}

// --- gap queries ------------------------------------------------------

TEST(SeqSet, GapsEnumeratesHoles) {
  SeqSet s = SeqSet::of({1, 4, 5, 8});
  EXPECT_EQ(s.gaps(), (std::vector<Seq>{2, 3, 6, 7}));
}

TEST(SeqSet, GapsRespectsLimit) {
  SeqSet s = SeqSet::of({10});
  EXPECT_EQ(s.gaps(3), (std::vector<Seq>{1, 2, 3}));
}

TEST(SeqSet, MissingFromFindsWhatPeerLacks) {
  SeqSet mine = SeqSet::contiguous(6);
  SeqSet peer = SeqSet::of({1, 3, 6});
  EXPECT_EQ(mine.missing_from(peer), (std::vector<Seq>{2, 4, 5}));
}

TEST(SeqSet, MissingFromCappedStopsAtCap) {
  SeqSet mine = SeqSet::contiguous(10);
  SeqSet peer = SeqSet::of({1, 5});
  // Cap at the peer's max: never offer sequence numbers that would raise it.
  EXPECT_EQ(mine.missing_from_capped(peer, peer.max_seq()),
            (std::vector<Seq>{2, 3, 4}));
}

TEST(SeqSet, MissingFromRespectsLimit) {
  SeqSet mine = SeqSet::contiguous(100);
  SeqSet peer;
  EXPECT_EQ(mine.missing_from(peer, 2), (std::vector<Seq>{1, 2}));
}

// --- pruning -----------------------------------------------------------

TEST(SeqSet, PruneKeepsContainment) {
  SeqSet s = SeqSet::contiguous(10);
  s.prune_below(7);
  EXPECT_TRUE(s.contains(1));
  EXPECT_TRUE(s.contains(7));
  EXPECT_TRUE(s.contains(10));
  EXPECT_EQ(s.count(), 10u);
  EXPECT_EQ(s.max_seq(), 10u);
  EXPECT_EQ(s.prune_watermark(), 7u);
  EXPECT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.intervals()[0].lo, 8u);
}

TEST(SeqSet, PruneSplitsPartialInterval) {
  SeqSet s = SeqSet::of({2, 3, 8, 9});
  s.prune_below(5);
  EXPECT_TRUE(s.contains(4));  // pruned range counts as contained
  EXPECT_TRUE(s.contains(8));
  EXPECT_EQ(s.max_seq(), 9u);
}

TEST(SeqSet, PruneEntireSetPreservesMax) {
  SeqSet s = SeqSet::contiguous(5);
  s.prune_below(5);
  EXPECT_EQ(s.max_seq(), 5u);
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(s.intervals().empty());
}

TEST(SeqSet, PruneIsMonotone) {
  SeqSet s = SeqSet::contiguous(10);
  s.prune_below(7);
  s.prune_below(3);  // lower watermark is a no-op
  EXPECT_EQ(s.prune_watermark(), 7u);
}

TEST(SeqSet, MergePropagatesWatermark) {
  SeqSet a = SeqSet::of({8});
  SeqSet b = SeqSet::contiguous(5);
  b.prune_below(5);
  a.merge(b);
  EXPECT_TRUE(a.contains(3));
  EXPECT_EQ(a.max_seq(), 8u);
}

TEST(SeqSet, MergeWithSelfLeavesSetUnchanged) {
  SeqSet a = SeqSet::of({1, 2, 5, 9, 10, 14});
  a.prune_below(1);
  const SeqSet before = a;
  a.merge(a);
  EXPECT_EQ(a, before);
  EXPECT_EQ(intervals_of(a), intervals_of(before));
}

TEST(SeqSet, MergeKeepsTheHigherWatermarkOfEitherOperand) {
  // The receiver's watermark is higher: the peer's pruned-away elements
  // below it are already contained, its elements above it are added.
  SeqSet high = SeqSet::contiguous(6);
  high.prune_below(6);
  high.insert(9);
  SeqSet low = SeqSet::of({2, 3, 7, 12});
  low.prune_below(1);
  SeqSet a = high;
  a.merge(low);
  EXPECT_EQ(a.prune_watermark(), 6u);
  EXPECT_EQ(intervals_of(a),
            (std::vector<SeqSet::Interval>{{7, 7}, {9, 9}, {12, 12}}));
  EXPECT_EQ(a.count(), 9u);

  // The peer's watermark is higher: the receiver prunes up to it first.
  SeqSet b = low;
  b.merge(high);
  EXPECT_EQ(b, a);
}

TEST(SeqSet, MissingFromSkipsPeerPrunedRange) {
  SeqSet mine = SeqSet::contiguous(10);
  SeqSet peer;
  peer.prune_below(6);  // peer holds 1..6 by convention
  EXPECT_EQ(mine.missing_from(peer), (std::vector<Seq>{7, 8, 9, 10}));
}

TEST(SeqSet, ContiguousPrefix) {
  EXPECT_EQ(SeqSet{}.contiguous_prefix(), 0u);
  EXPECT_EQ(SeqSet::contiguous(4).contiguous_prefix(), 4u);
  EXPECT_EQ(SeqSet::of({2, 3}).contiguous_prefix(), 0u);
  SeqSet s = SeqSet::of({1, 2, 5});
  EXPECT_EQ(s.contiguous_prefix(), 2u);
  s.prune_below(2);
  EXPECT_EQ(s.contiguous_prefix(), 2u);
  s.insert(3);
  EXPECT_EQ(s.contiguous_prefix(), 3u);
}

TEST(SeqSet, WireSizeTracksFragmentation) {
  SeqSet compact = SeqSet::contiguous(1000);
  SeqSet fragmented;
  for (Seq q = 1; q <= 1000; q += 2) fragmented.insert(q);
  EXPECT_LT(compact.wire_size(), fragmented.wire_size());
}

TEST(SeqSet, ToStringReadable) {
  SeqSet s = SeqSet::of({1, 2, 3, 7});
  EXPECT_EQ(s.to_string(), "{1..3,7}");
  s.prune_below(2);
  EXPECT_EQ(s.to_string(), "{1..2(pruned),3,7}");
}

// --- wire codec ---------------------------------------------------------

TEST(SeqSetCodec, RoundTripsTypicalSets) {
  for (const SeqSet& original :
       {SeqSet{}, SeqSet::contiguous(10), SeqSet::of({1, 5, 6, 9}),
        SeqSet::of({3})}) {
    const auto bytes = original.encode();
    EXPECT_EQ(bytes.size(), original.wire_size());
    const auto decoded = SeqSet::decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, original);
  }
}

TEST(SeqSetCodec, RoundTripsPrunedSets) {
  SeqSet s = SeqSet::contiguous(20);
  s.insert(25);
  s.prune_below(18);
  const auto decoded = SeqSet::decode(s.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, s);
  EXPECT_EQ(decoded->prune_watermark(), 18u);
  EXPECT_TRUE(decoded->contains(5));  // via the watermark
  EXPECT_TRUE(decoded->contains(25));
}

TEST(SeqSetCodec, RejectsMalformedInput) {
  // Truncated header.
  std::string short_buf(4, 0);
  EXPECT_FALSE(SeqSet::decode(short_buf).has_value());
  // Length not a whole number of intervals.
  std::string ragged(8 + 7, 0);
  EXPECT_FALSE(SeqSet::decode(ragged).has_value());
  // lo > hi.
  SeqSet good = SeqSet::of({5});
  auto bytes = good.encode();
  std::swap_ranges(bytes.begin() + 8, bytes.begin() + 16, bytes.begin() + 16);
  auto corrupt = SeqSet::of({2, 9}).encode();
  // Build an explicitly invalid buffer: interval [9, 2].
  std::string bad;
  bad.resize(24, 0);
  bad[8] = 9;   // lo = 9
  bad[16] = 2;  // hi = 2
  EXPECT_FALSE(SeqSet::decode(bad).has_value());
}

TEST(SeqSetCodec, RejectsOverlappingOrUnorderedIntervals) {
  // Two adjacent intervals [1,3][4,6] violate maximality.
  std::string adjacent(8 + 32, 0);
  adjacent[8] = 1;
  adjacent[16] = 3;
  adjacent[24] = 4;
  adjacent[32] = 6;
  EXPECT_FALSE(SeqSet::decode(adjacent).has_value());

  // Interval at or below the watermark.
  std::string under(8 + 16, 0);
  under[0] = 5;  // watermark 5
  under[8] = 3;  // lo = 3 <= watermark
  under[16] = 4;
  EXPECT_FALSE(SeqSet::decode(under).has_value());
}

TEST(SeqSetCodec, RandomizedRoundTrip) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    SeqSet s;
    for (int i = 0; i < 40; ++i) s.insert(1 + rng() % 100);
    if (trial % 3 == 0) s.prune_below(1 + rng() % 20);
    const auto decoded = SeqSet::decode(s.encode());
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(*decoded, s);
  }
}

namespace {
void put64(std::string& buf, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf[at + static_cast<std::size_t>(i)] =
        static_cast<char>(v >> (8 * i));
  }
}
}  // namespace

TEST(SeqSetCodec, RejectsWatermarkAboveCeiling) {
  // Watermark UINT64_MAX would overflow count()/contiguous_prefix()
  // arithmetic (watermark + interval widths); decode must reject anything
  // above kMaxSeq rather than construct a set that traps later.
  std::string wm_max(8, '\xff');
  EXPECT_FALSE(SeqSet::decode(wm_max).has_value());

  std::string at_ceiling(8, 0);
  put64(at_ceiling, 0, SeqSet::kMaxSeq);
  const auto ok = SeqSet::decode(at_ceiling);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->count(), SeqSet::kMaxSeq);  // no wrap
  EXPECT_EQ(ok->contiguous_prefix(), SeqSet::kMaxSeq);

  std::string just_above(8, 0);
  put64(just_above, 0, SeqSet::kMaxSeq + 1);
  EXPECT_FALSE(SeqSet::decode(just_above).has_value());
}

TEST(SeqSetCodec, RejectsIntervalAboveCeiling) {
  std::string buf(8 + 16, 0);
  put64(buf, 8, 5);
  put64(buf, 16, std::numeric_limits<std::uint64_t>::max());  // hi wraps hi+1
  EXPECT_FALSE(SeqSet::decode(buf).has_value());

  put64(buf, 8, SeqSet::kMaxSeq);
  put64(buf, 16, SeqSet::kMaxSeq);
  const auto ok = SeqSet::decode(buf);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->count(), 1u);
  EXPECT_EQ(ok->max_seq(), SeqSet::kMaxSeq);
}

// Differential test over the full interval-walk API: insert_range, merge,
// prune_below and missing_from_capped against a materialized std::set
// oracle (pruned prefixes are materialized into the oracle, matching the
// "pruned elements still count as contained" semantics), with an
// encode->decode round trip after every verification pass.
TEST(SeqSet, RandomizedDifferentialRichOps) {
  constexpr Seq kUniverse = 400;
  std::mt19937_64 rng(2026);
  for (int trial = 0; trial < 12; ++trial) {
    SeqSet ours, aux;
    std::set<Seq> ref_ours, ref_aux;

    const auto materialize_prune = [](std::set<Seq>& ref, Seq watermark) {
      for (Seq q = 1; q <= watermark; ++q) ref.insert(q);
    };

    for (int op = 0; op < 250; ++op) {
      switch (rng() % 5) {
        case 0: {  // single insert (into either set)
          const Seq q = 1 + rng() % kUniverse;
          if (rng() % 2 == 0) {
            ASSERT_EQ(ours.insert(q), ref_ours.insert(q).second);
          } else {
            ASSERT_EQ(aux.insert(q), ref_aux.insert(q).second);
          }
          break;
        }
        case 1: {  // block insert
          const Seq lo = 1 + rng() % kUniverse;
          const Seq hi = std::min<Seq>(kUniverse, lo + rng() % 30);
          ours.insert_range(lo, hi);
          for (Seq q = lo; q <= hi; ++q) ref_ours.insert(q);
          break;
        }
        case 2: {  // prune either set (merge must propagate aux's watermark)
          const Seq w = 1 + rng() % (kUniverse / 4);
          if (rng() % 2 == 0) {
            ours.prune_below(w);
            materialize_prune(ref_ours, w);
          } else {
            aux.prune_below(w);
            materialize_prune(ref_aux, w);
          }
          break;
        }
        case 3: {  // merge aux into ours (watermark propagates)
          ours.merge(aux);
          ref_ours.insert(ref_aux.begin(), ref_aux.end());
          break;
        }
        case 4: {  // capped set difference vs the oracle
          const Seq cap = 1 + rng() % kUniverse;
          const std::size_t limit = 1 + rng() % 20;
          // Our own pruned prefix is never offered (the bodies are gone and
          // a pruned seq is by definition already at every host), so the
          // oracle difference starts above our watermark.
          std::vector<Seq> expected;
          for (Seq q = ours.prune_watermark() + 1;
               q <= cap && expected.size() < limit; ++q) {
            if (ref_ours.contains(q) && !ref_aux.contains(q)) {
              expected.push_back(q);
            }
          }
          ASSERT_EQ(ours.missing_from_capped(aux, cap, limit), expected);
          break;
        }
      }
    }

    // Full-state agreement.
    ASSERT_EQ(ours.count(), ref_ours.size());
    ASSERT_EQ(ours.max_seq(), ref_ours.empty() ? 0u : *ref_ours.rbegin());
    for (Seq q = 1; q <= kUniverse + 1; ++q) {
      ASSERT_EQ(ours.contains(q), ref_ours.contains(q)) << "q=" << q;
    }
    ASSERT_EQ(ours.missing_from(aux),
              [&] {
                std::vector<Seq> d;
                for (Seq q : ref_ours) {
                  if (q > ours.prune_watermark() && !ref_aux.contains(q)) {
                    d.push_back(q);
                  }
                }
                return d;
              }());

    // Wire round trip preserves the exact state.
    const auto decoded = SeqSet::decode(ours.encode());
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(*decoded, ours);
  }
}

// Differential test against std::set over random operations.
TEST(SeqSet, RandomizedDifferentialAgainstStdSet) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    SeqSet ours;
    std::set<Seq> reference;
    for (int op = 0; op < 400; ++op) {
      const Seq q = 1 + rng() % 60;
      const bool inserted_ref = reference.insert(q).second;
      const bool inserted_ours = ours.insert(q);
      ASSERT_EQ(inserted_ours, inserted_ref);
    }
    ASSERT_EQ(ours.count(), reference.size());
    ASSERT_EQ(ours.max_seq(), *reference.rbegin());
    for (Seq q = 1; q <= 61; ++q) {
      ASSERT_EQ(ours.contains(q), reference.contains(q)) << "q=" << q;
    }
    // Gap agreement.
    std::vector<Seq> expected_gaps;
    for (Seq q = 1; q < *reference.rbegin(); ++q) {
      if (!reference.contains(q)) expected_gaps.push_back(q);
    }
    ASSERT_EQ(ours.gaps(), expected_gaps);
  }
}

// Model of a SeqSet: explicit elements plus a prune watermark below which
// everything counts as contained.
struct ModelSet {
  std::set<Seq> elements;
  Seq watermark{0};

  void prune(Seq w) {
    watermark = std::max(watermark, w);
    elements.erase(elements.begin(), elements.upper_bound(watermark));
  }
  [[nodiscard]] bool contains(Seq q) const {
    return (q >= 1 && q <= watermark) || elements.contains(q);
  }
  [[nodiscard]] std::vector<SeqSet::Interval> intervals() const {
    std::vector<SeqSet::Interval> out;
    for (Seq q : elements) {
      if (!out.empty() && out.back().hi + 1 == q) {
        out.back().hi = q;
      } else {
        out.push_back({q, q});
      }
    }
    return out;
  }
};

// Differential test of merge() against the model: random operands of up
// to a few dozen intervals each, with random watermarks on either side.
TEST(SeqSet, RandomizedMergeDifferentialAgainstStdSet) {
  std::mt19937_64 rng(20261017);
  const auto draw = [&rng](SeqSet& ours, ModelSet& model) {
    const Seq span = 1 + rng() % 80;
    const int inserts = static_cast<int>(rng() % 40);
    for (int i = 0; i < inserts; ++i) {
      const Seq q = 1 + rng() % span;
      ours.insert(q);
      model.elements.insert(q);
    }
    if (rng() % 3 == 0) {
      const Seq w = rng() % (span + 1);
      ours.prune_below(w);
      model.prune(w);
    }
  };
  for (int trial = 0; trial < 10000; ++trial) {
    SeqSet a;
    SeqSet b;
    ModelSet ma;
    ModelSet mb;
    draw(a, ma);
    draw(b, mb);
    a.merge(b);
    ma.prune(mb.watermark);
    for (Seq q : mb.elements) {
      if (q > ma.watermark) ma.elements.insert(q);
    }
    ASSERT_EQ(a.prune_watermark(), ma.watermark) << "trial " << trial;
    ASSERT_EQ(intervals_of(a), ma.intervals()) << "trial " << trial;
    ASSERT_EQ(a.count(), ma.watermark + ma.elements.size())
        << "trial " << trial;
    for (Seq q = 0; q <= 82; ++q) {
      ASSERT_EQ(a.contains(q), ma.contains(q))
          << "trial " << trial << " q=" << q;
    }
  }
}

// merge() raises a higher watermark inside its walk instead of pruning
// first. Over random operands, with the receiver's block shared with an
// earlier report, with the operand, or with nothing, the result must equal
// pruning to the operand's watermark and merging after — and the sets
// that shared a block must not see the write.
TEST(SeqSet, MergeEqualsPruneThenMerge) {
  std::mt19937_64 rng(211018);
  const auto draw = [&rng] {
    SeqSet s;
    const Seq span = 1 + rng() % 80;
    const int inserts = static_cast<int>(rng() % 40);
    for (int i = 0; i < inserts; ++i) s.insert(1 + rng() % span);
    if (rng() % 2 == 0) s.prune_below(rng() % (span + 1));
    return s;
  };
  for (int trial = 0; trial < 20000; ++trial) {
    SeqSet ours = draw();
    SeqSet report = draw();
    SeqSet earlier;  // an earlier report ours still shares a block with
    switch (rng() % 4) {
      case 0:
        earlier = ours;
        break;
      case 1:  // the report grew out of ours and may still share its block
        report = ours;
        if (rng() % 2 == 0) report.insert(1 + rng() % 90);
        report.prune_below(rng() % 90);
        break;
      case 2:  // ours is a blockless or block-sharing copy of an old report
        ours = SeqSet{};
        if (rng() % 2 == 0) ours = earlier = draw();
        break;
      default:
        break;
    }
    const std::vector<SeqSet::Interval> earlier_intervals =
        intervals_of(earlier);
    const Seq earlier_watermark = earlier.prune_watermark();
    const std::vector<SeqSet::Interval> report_intervals =
        intervals_of(report);

    SeqSet expected = ours;
    expected.prune_below(report.prune_watermark());
    expected.merge(report);
    ours.merge(report);

    ASSERT_EQ(ours.prune_watermark(), expected.prune_watermark())
        << "trial " << trial;
    ASSERT_EQ(intervals_of(ours), intervals_of(expected)) << "trial " << trial;
    ASSERT_EQ(intervals_of(earlier), earlier_intervals) << "trial " << trial;
    ASSERT_EQ(earlier.prune_watermark(), earlier_watermark)
        << "trial " << trial;
    ASSERT_EQ(intervals_of(report), report_intervals) << "trial " << trial;
  }
}

// The INFO steady state: a peer's report only extends the last interval.
// Once the receiver's capacity covers both operands, merging allocates
// nothing — capacity stays put.
TEST(SeqSet, MergeExtendingLastIntervalDoesNotGrowCapacity) {
  SeqSet ours = SeqSet::of({1, 2, 3, 7, 8, 12, 20});
  SeqSet peer = ours;
  peer.insert_range(20, 25);
  ours.merge(peer);  // warm-up: may grow to hold both operands
  const std::size_t capacity = ours.capacity();
  // Room for both operands is what lets the next merge skip allocating.
  ASSERT_GE(capacity, ours.intervals().size() + peer.intervals().size());
  for (Seq top = 26; top < 200; ++top) {
    peer.insert(top);
    ours.merge(peer);
    ASSERT_EQ(ours, peer);
    ASSERT_EQ(ours.capacity(), capacity) << "top=" << top;
  }
}

// --- copy-on-write storage ----------------------------------------------

SeqSet sample() { return SeqSet::of({1, 2, 3, 7, 8, 12}); }

TEST(SeqSetSharing, CopiesShareOneBlock) {
  const SeqSet a = sample();
  const SeqSet b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  SeqSet c;
  c = b;
  EXPECT_TRUE(b.shares_storage_with(a));
  EXPECT_TRUE(c.shares_storage_with(a));
  EXPECT_FALSE(a.shares_storage_with(sample()));  // equal, built apart
  EXPECT_FALSE(SeqSet{}.shares_storage_with(SeqSet{}));  // no block at all
}

// Every mutator, applied to either side of a shared pair, leaves the other
// side exactly as it was and gives the mutated side its own block.
TEST(SeqSetSharing, EachMutatorDetachesOnlyTheMutatedSide) {
  struct Mutator {
    const char* name;
    void (*apply)(SeqSet&);
  };
  const Mutator mutators[] = {
      {"insert", [](SeqSet& s) { s.insert(5); }},
      {"insert extending an interval", [](SeqSet& s) { s.insert(9); }},
      {"insert_range", [](SeqSet& s) { s.insert_range(20, 30); }},
      {"merge", [](SeqSet& s) { s.merge(SeqSet::of({4, 40})); }},
      {"prune_below", [](SeqSet& s) { s.prune_below(8); }},
      {"prune_below everything", [](SeqSet& s) { s.prune_below(50); }},
  };
  for (const Mutator& m : mutators) {
    for (const bool mutate_copy : {false, true}) {
      SCOPED_TRACE(std::string(m.name) + (mutate_copy ? " on copy" : " on original"));
      SeqSet original = sample();
      SeqSet copy = original;
      ASSERT_TRUE(copy.shares_storage_with(original));
      SeqSet& mutated = mutate_copy ? copy : original;
      const SeqSet& untouched = mutate_copy ? original : copy;
      m.apply(mutated);
      EXPECT_EQ(untouched, sample());
      EXPECT_EQ(intervals_of(untouched), intervals_of(sample()));
      EXPECT_NE(mutated, sample());
      EXPECT_FALSE(mutated.shares_storage_with(untouched));
      SeqSet alone = sample();  // the same mutation on an unshared set
      m.apply(alone);
      EXPECT_EQ(mutated, alone);
    }
  }
}

TEST(SeqSetSharing, MergingTwoSetsThatShareABlockKeepsSharing) {
  SeqSet a = SeqSet::of({5, 6, 9});
  SeqSet b = a;
  b.prune_below(2);  // below every interval: only the watermark moves
  ASSERT_TRUE(b.shares_storage_with(a));
  a.merge(b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.prune_watermark(), 2u);
  EXPECT_TRUE(a.shares_storage_with(b));
  b.merge(a);
  EXPECT_TRUE(b.shares_storage_with(a));
  EXPECT_EQ(b.to_string(), "{1..2(pruned),5..6,9}");
}

TEST(SeqSetSharing, SelfMergeNeitherChangesNorClones) {
  SeqSet a = sample();
  const SeqSet copy = a;
  a.merge(a);
  EXPECT_EQ(a, sample());
  EXPECT_TRUE(a.shares_storage_with(copy));
}

TEST(SeqSetSharing, NoOpMutationsDoNotClone) {
  SeqSet s = sample();
  s.prune_below(1);
  const SeqSet copy = s;
  EXPECT_FALSE(s.insert(2));       // present
  EXPECT_FALSE(s.insert(1));       // at the watermark
  s.insert_range(7, 8);            // already contained
  s.prune_below(1);                // at the watermark
  s.prune_below(0);                // below it
  s.merge(SeqSet{});               // empty
  EXPECT_TRUE(s.shares_storage_with(copy));
  EXPECT_EQ(s, copy);
  // Raising the watermark below the lowest interval changes only the
  // watermark, which each set holds by value.
  SeqSet t = SeqSet::of({5, 6});
  const SeqSet t_copy = t;
  t.prune_below(3);
  EXPECT_TRUE(t.shares_storage_with(t_copy));
  EXPECT_EQ(t.prune_watermark(), 3u);
  EXPECT_EQ(t_copy.prune_watermark(), 0u);
}

TEST(SeqSetSharing, BlocklessSetMergingAdoptsTheOtherBlock) {
  const SeqSet info = sample();
  SeqSet map;
  ASSERT_EQ(map.capacity(), 0u);  // never written: no block
  map.merge(info);
  EXPECT_EQ(map, info);
  EXPECT_TRUE(map.shares_storage_with(info));
}

// A set whose own block pruning emptied keeps that block: merging refills
// it in place instead of adopting the other set's block, which the next
// write would have to clone back.
TEST(SeqSetSharing, PrunedEmptySetRefillsItsOwnBlock) {
  SeqSet map = SeqSet::of({1, 3, 5, 7});
  const std::size_t capacity = map.capacity();
  map.prune_below(10);
  ASSERT_TRUE(map.intervals().empty());
  ASSERT_EQ(map.capacity(), capacity);
  SeqSet report;  // the same watermark, two intervals above it
  report.prune_below(10);
  report.insert_range(11, 15);
  report.insert(20);
  map.merge(report);
  EXPECT_EQ(map, report);
  EXPECT_FALSE(map.shares_storage_with(report));
  EXPECT_EQ(map.capacity(), capacity);
  // Writing to it now leaves the report alone and still fits.
  map.insert(17);
  EXPECT_EQ(map.to_string(), "{1..10(pruned),11..15,17,20}");
  EXPECT_EQ(report.to_string(), "{1..10(pruned),11..15,20}");
  EXPECT_EQ(map.capacity(), capacity);
}

TEST(SeqSetSharing, AssignmentReleasesTheOldBlock) {
  SeqSet a = sample();
  SeqSet b = a;
  a = SeqSet::of({40});
  EXPECT_FALSE(a.shares_storage_with(b));
  EXPECT_EQ(b, sample());
  const SeqSet& alias = b;
  b = alias;  // self-assignment keeps the block alive
  EXPECT_EQ(b, sample());
  SeqSet moved = std::move(b);
  EXPECT_EQ(moved, sample());
  b = moved;
  EXPECT_TRUE(b.shares_storage_with(moved));
}

// Differential test of sharing against the model: a pool of sets that
// copy into one another and mutate at random. Any write through a shared
// block would show up as a set drifting from its model.
TEST(SeqSetSharing, RandomCopiesAndMutationsMatchTheModel) {
  std::mt19937_64 rng(161017);
  constexpr std::size_t kPool = 4;
  std::vector<SeqSet> sets(kPool);
  std::vector<ModelSet> models(kPool);
  for (int step = 0; step < 20000; ++step) {
    const std::size_t i = rng() % kPool;
    const std::size_t j = rng() % kPool;
    const Seq q = 1 + rng() % 60;
    switch (rng() % 6) {
      case 0:
        sets[i] = sets[j];
        models[i] = models[j];
        break;
      case 1:
        sets[i].insert(q);
        if (q > models[i].watermark) models[i].elements.insert(q);
        break;
      case 2: {
        const Seq hi = q + rng() % 5;
        sets[i].insert_range(q, hi);
        for (Seq x = std::max(q, models[i].watermark + 1); x <= hi; ++x) {
          models[i].elements.insert(x);
        }
        break;
      }
      case 3:
        sets[i].merge(sets[j]);
        models[i].prune(models[j].watermark);
        for (Seq x : models[j].elements) {
          if (x > models[i].watermark) models[i].elements.insert(x);
        }
        break;
      case 4: {
        const Seq w = q / 2;
        sets[i].prune_below(w);
        models[i].prune(w);
        break;
      }
      default:
        sets[i] = SeqSet{};
        models[i] = ModelSet{};
        break;
    }
    for (std::size_t k = 0; k < kPool; ++k) {
      ASSERT_EQ(sets[k].prune_watermark(), models[k].watermark)
          << "step " << step << " set " << k;
      ASSERT_EQ(intervals_of(sets[k]), models[k].intervals())
          << "step " << step << " set " << k;
    }
  }
}

}  // namespace
}  // namespace rbcast::util
