// rt wire frames: codec round-trips through the transport's frame buffer
// and rejection of garbage. The node loop itself is tested over both
// transports in tests/core/node_loop_test.cpp.
#include "rt/wire.hpp"

#include <gtest/gtest.h>

namespace ci::rt {
namespace {

using consensus::Message;
using consensus::MsgType;
using consensus::ProtoId;

TEST(Wire, EncodeDecodeRoundTrip) {
  Message m(MsgType::kOpxBatchLearn, ProtoId::kOnePaxos, 1, 2);
  m.u.opx_batch_learn.instance = 7;
  m.u.opx_batch_learn.count = 1;
  m.u.opx_batch_learn.run.inline_cmds[0].client = 3;
  m.u.opx_batch_learn.run.inline_cmds[0].seq = 9;
  unsigned char buf[kWireBufBytes];
  const std::uint32_t n = wire::encode(m, buf);
  EXPECT_EQ(n, consensus::wire_size(m));
  Message out;
  ASSERT_TRUE(wire::try_decode(buf, n, &out));
  EXPECT_EQ(out.type, MsgType::kOpxBatchLearn);
  EXPECT_EQ(out.u.opx_batch_learn.instance, 7);
  EXPECT_EQ(out.u.opx_batch_learn.count, 1);
  EXPECT_EQ(out.u.opx_batch_learn.run.inline_cmds[0].seq, 9u);
}

TEST(Wire, DecodeRejectsGarbageType) {
  unsigned char buf[kWireBufBytes] = {};
  buf[0] = 0xEE;  // bogus MsgType
  Message out;
  EXPECT_FALSE(wire::try_decode(buf, sizeof(consensus::Message), &out));
}

}  // namespace
}  // namespace ci::rt
