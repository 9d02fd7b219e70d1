#include "core/messages.h"

#include <gtest/gtest.h>

#include "core/basic_protocol.h"

namespace rbcast::core {
namespace {

TEST(Messages, KindLabels) {
  EXPECT_STREQ(kind_of(ProtocolMessage{DataMsg{1, "x", false, {}, {}}}),
               "data");
  EXPECT_STREQ(kind_of(ProtocolMessage{DataMsg{1, "x", true, {}, {}}}),
               "gapfill");
  EXPECT_STREQ(kind_of(ProtocolMessage{InfoMsg{SeqSet{}, kNoHost}}), "info");
  EXPECT_STREQ(kind_of(ProtocolMessage{AttachRequest{SeqSet{}}}),
               "attach_req");
  EXPECT_STREQ(kind_of(ProtocolMessage{AttachAccept{SeqSet{}, kNoHost}}),
               "attach_ack");
  EXPECT_STREQ(kind_of(ProtocolMessage{DetachNotice{}}), "detach");
}

TEST(Messages, IsDataOnlyForDataFamily) {
  EXPECT_TRUE(is_data(ProtocolMessage{DataMsg{}}));
  EXPECT_FALSE(is_data(ProtocolMessage{InfoMsg{}}));
  EXPECT_FALSE(is_data(ProtocolMessage{AttachRequest{}}));
  EXPECT_FALSE(is_data(ProtocolMessage{AttachAccept{}}));
  EXPECT_FALSE(is_data(ProtocolMessage{DetachNotice{}}));
}

TEST(Messages, DataSizeGrowsWithBody) {
  const auto small =
      wire_size(ProtocolMessage{DataMsg{1, "ab", false, {}, {}}});
  const auto large = wire_size(
      ProtocolMessage{DataMsg{1, std::string(1000, 'x'), false, {}, {}}});
  EXPECT_EQ(large - small, 998u);
}

TEST(Messages, InfoSizeGrowsWithFragmentation) {
  SeqSet compact = SeqSet::contiguous(100);
  SeqSet holey;
  for (Seq q = 1; q <= 100; q += 2) holey.insert(q);
  const auto a = wire_size(ProtocolMessage{InfoMsg{compact, kNoHost}});
  const auto b = wire_size(ProtocolMessage{InfoMsg{holey, kNoHost}});
  EXPECT_LT(a, b);
}

TEST(Messages, ControlMessagesAreSmall) {
  // A detach notice is pure header.
  EXPECT_LE(wire_size(ProtocolMessage{DetachNotice{}}), 32u);
  // An empty attach request is nearly pure header.
  EXPECT_LE(wire_size(ProtocolMessage{AttachRequest{SeqSet{}}}), 48u);
}

TEST(BasicMessages, SizesAndKinds) {
  EXPECT_STREQ(kind_of(BasicMessage{BasicData{1, "x"}}), "data");
  EXPECT_STREQ(kind_of(BasicMessage{BasicAck{1}}), "ack");
  EXPECT_LT(wire_size(BasicMessage{BasicAck{1}}),
            wire_size(BasicMessage{BasicData{1, std::string(100, 'x')}}));
}

}  // namespace
}  // namespace rbcast::core
