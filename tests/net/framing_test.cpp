// Length-prefixed TCP framing: the reassembler must re-discover frame
// boundaries no matter how the kernel sliced the byte stream — whole
// frames, several merged into one recv(), a frame torn at EVERY possible
// byte position, and one-byte dribble — and must reject the two prefixes
// that make resynchronization impossible (length 0, length beyond the
// codec's max frame) — also under a seeded mutation fuzz of valid streams.
// Plus the producer half: SendRing wrap-around and
// RingFrameWriter laying [prefix][frame bytes] that the reassembler then
// reads back intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/framing.hpp"
#include "net/send_ring.hpp"

namespace ci::net {
namespace {

constexpr std::uint32_t kMaxFrame = 256;

// A deterministic payload frames are filled from, so a reassembled frame's
// bytes can be checked, not just its length.
std::vector<unsigned char> payload(std::uint32_t len, unsigned char salt) {
  std::vector<unsigned char> out(len);
  for (std::uint32_t i = 0; i < len; ++i) {
    out[i] = static_cast<unsigned char>(salt + i * 7);
  }
  return out;
}

std::vector<unsigned char> prefixed(const std::vector<unsigned char>& frame) {
  std::vector<unsigned char> out(kLenPrefixBytes + frame.size());
  put_len_prefix(out.data(), static_cast<std::uint32_t>(frame.size()));
  std::memcpy(out.data() + kLenPrefixBytes, frame.data(), frame.size());
  return out;
}

// Collects every frame the reassembler completes.
struct Sink {
  std::vector<std::vector<unsigned char>> frames;
  auto cb() {
    return [this](const unsigned char* p, std::uint32_t len) {
      frames.emplace_back(p, p + len);
    };
  }
};

TEST(LenPrefix, RoundTripsEveryByteOrder) {
  unsigned char buf[kLenPrefixBytes];
  for (const std::uint32_t v : {0u, 1u, 0x12u, 0x1234u, 0x123456u, 0x12345678u,
                                0xFFFFFFFFu}) {
    put_len_prefix(buf, v);
    EXPECT_EQ(get_len_prefix(buf), v);
  }
  // Explicitly little-endian: the low byte goes on the wire first.
  put_len_prefix(buf, 0x04030201u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
  EXPECT_EQ(buf[2], 0x03);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(FrameReassembler, MergedFramesInOneRecvArriveInOrder) {
  const auto a = payload(5, 1), b = payload(32, 2), c = payload(kMaxFrame, 3);
  std::vector<unsigned char> stream;
  for (const auto* f : {&a, &b, &c}) {
    const auto p = prefixed(*f);
    stream.insert(stream.end(), p.begin(), p.end());
  }

  FrameReassembler r(kMaxFrame);
  Sink sink;
  ASSERT_TRUE(r.feed(stream.data(), stream.size(), sink.cb()));
  ASSERT_EQ(sink.frames.size(), 3u);
  EXPECT_EQ(sink.frames[0], a);
  EXPECT_EQ(sink.frames[1], b);
  EXPECT_EQ(sink.frames[2], c);
  EXPECT_EQ(r.pending(), 0u);
}

TEST(FrameReassembler, TornAtEveryBytePosition) {
  // Two frames; cut the stream at every possible boundary and feed the two
  // halves as separate recv()s. The frames must come out identical no
  // matter where the tear landed (inside a prefix, inside a body, at a
  // frame edge).
  const auto a = payload(11, 5), b = payload(27, 6);
  std::vector<unsigned char> stream = prefixed(a);
  const auto pb = prefixed(b);
  stream.insert(stream.end(), pb.begin(), pb.end());

  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    FrameReassembler r(kMaxFrame);
    Sink sink;
    ASSERT_TRUE(r.feed(stream.data(), cut, sink.cb()));
    ASSERT_TRUE(r.feed(stream.data() + cut, stream.size() - cut, sink.cb()));
    ASSERT_EQ(sink.frames.size(), 2u);
    EXPECT_EQ(sink.frames[0], a);
    EXPECT_EQ(sink.frames[1], b);
    EXPECT_EQ(r.pending(), 0u);
  }
}

TEST(FrameReassembler, OneByteDribbleReassembles) {
  const auto a = payload(19, 9), b = payload(1, 10);
  std::vector<unsigned char> stream = prefixed(a);
  const auto pb = prefixed(b);
  stream.insert(stream.end(), pb.begin(), pb.end());

  FrameReassembler r(kMaxFrame);
  Sink sink;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(r.feed(stream.data() + i, 1, sink.cb()));
    // The carried partial never exceeds one prefixed frame.
    EXPECT_LE(r.pending(), kLenPrefixBytes + static_cast<std::size_t>(kMaxFrame));
  }
  ASSERT_EQ(sink.frames.size(), 2u);
  EXPECT_EQ(sink.frames[0], a);
  EXPECT_EQ(sink.frames[1], b);
  EXPECT_EQ(r.pending(), 0u);
}

TEST(FrameReassembler, PartialTailCarriesAcrossFeeds) {
  const auto a = payload(8, 3), b = payload(40, 4);
  std::vector<unsigned char> stream = prefixed(a);
  const auto pb = prefixed(b);
  stream.insert(stream.end(), pb.begin(), pb.end());

  // First recv holds frame a plus half of b's body.
  const std::size_t half = prefixed(a).size() + kLenPrefixBytes + 20;
  FrameReassembler r(kMaxFrame);
  Sink sink;
  ASSERT_TRUE(r.feed(stream.data(), half, sink.cb()));
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(sink.frames[0], a);
  EXPECT_EQ(r.pending(), kLenPrefixBytes + 20u);  // b's prefix + 20 body bytes

  ASSERT_TRUE(r.feed(stream.data() + half, stream.size() - half, sink.cb()));
  ASSERT_EQ(sink.frames.size(), 2u);
  EXPECT_EQ(sink.frames[1], b);
  EXPECT_EQ(r.pending(), 0u);
}

TEST(FrameReassembler, ZeroLengthPrefixIsFatal) {
  unsigned char buf[kLenPrefixBytes];
  put_len_prefix(buf, 0);
  FrameReassembler r(kMaxFrame);
  Sink sink;
  EXPECT_FALSE(r.feed(buf, sizeof(buf), sink.cb()));
  EXPECT_TRUE(sink.frames.empty());
}

TEST(FrameReassembler, OversizePrefixIsFatal) {
  unsigned char buf[kLenPrefixBytes];
  put_len_prefix(buf, kMaxFrame + 1);
  FrameReassembler r(kMaxFrame);
  Sink sink;
  EXPECT_FALSE(r.feed(buf, sizeof(buf), sink.cb()));
}

TEST(FrameReassembler, OversizePrefixTornAcrossFeedsIsStillFatal) {
  // The bad length is only discoverable once the carried-over partial
  // accumulates all four prefix bytes — the reject must fire there too.
  unsigned char buf[kLenPrefixBytes];
  put_len_prefix(buf, kMaxFrame + 1);
  FrameReassembler r(kMaxFrame);
  Sink sink;
  ASSERT_TRUE(r.feed(buf, 2, sink.cb()));
  EXPECT_EQ(r.pending(), 2u);
  EXPECT_FALSE(r.feed(buf + 2, 2, sink.cb()));
}

// What a stream's bytes mean, read in one piece: the complete frames up to
// the first length prefix that is 0 or above kMaxFrame (fatal) or the end
// of the bytes (a trailing partial is simply not a frame yet).
struct Parse {
  std::vector<std::vector<unsigned char>> frames;
  bool fatal = false;
};

Parse parse_whole(const std::vector<unsigned char>& s) {
  Parse out;
  std::size_t at = 0;
  while (s.size() - at >= kLenPrefixBytes) {
    const std::uint32_t len = get_len_prefix(s.data() + at);
    if (len == 0 || len > kMaxFrame) {
      out.fatal = true;
      break;
    }
    if (s.size() - at - kLenPrefixBytes < len) break;
    const auto* f = s.data() + at + kLenPrefixBytes;
    out.frames.emplace_back(f, f + len);
    at += kLenPrefixBytes + len;
  }
  return out;
}

TEST(FrameReassembler, MutatedStreamsYieldTheirFramesOrFail) {
  // Valid streams of random frames, then mutated: re-sliced at random
  // points (several frames merged into one feed, one frame torn across
  // many), one length prefix set to an edge or random value, random byte
  // flips. Whatever the slicing, the reassembler must hand over exactly the
  // frames the bytes hold (the frames fed in, when nothing was mutated) and
  // fail exactly where a prefix makes the stream unreadable. Each feed is
  // its own heap block, so a frame handed over in place must lie inside it.
  Rng rng(0xF4A3);
  int fatal_streams = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::vector<unsigned char>> fed;
    std::vector<std::size_t> prefix_at;
    std::vector<unsigned char> stream;
    const int nframes = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < nframes; ++f) {
      const auto len = static_cast<std::uint32_t>(1 + rng.next_below(kMaxFrame));
      fed.push_back(payload(len, static_cast<unsigned char>(rng.next_below(256))));
      prefix_at.push_back(stream.size());
      const auto p = prefixed(fed.back());
      stream.insert(stream.end(), p.begin(), p.end());
    }
    const int mutation = static_cast<int>(rng.next_below(3));  // 0: none
    if (mutation == 1) {
      const std::uint32_t edges[] = {0, 1, kMaxFrame, kMaxFrame + 1,
                                     static_cast<std::uint32_t>(rng.next_u64())};
      put_len_prefix(stream.data() + prefix_at[rng.next_below(prefix_at.size())],
                     edges[rng.next_below(5)]);
    } else if (mutation == 2) {
      const int flips = 1 + static_cast<int>(rng.next_below(4));
      for (int k = 0; k < flips; ++k) {
        stream[rng.next_below(stream.size())] ^=
            static_cast<unsigned char>(1 + rng.next_below(255));
      }
    }
    const Parse want = parse_whole(stream);
    if (mutation == 0) {
      ASSERT_FALSE(want.fatal);
      ASSERT_EQ(want.frames, fed);
    }

    FrameReassembler r(kMaxFrame);
    Sink sink;
    bool ok = true;
    std::size_t at = 0;
    while (ok && at < stream.size()) {
      // Slices from one byte to a few frames long.
      const std::size_t n = std::min<std::size_t>(
          stream.size() - at, 1 + rng.next_below(3 * (kLenPrefixBytes + kMaxFrame)));
      const std::vector<unsigned char> chunk(stream.begin() + static_cast<std::ptrdiff_t>(at),
                                             stream.begin() + static_cast<std::ptrdiff_t>(at + n));
      const unsigned char* lo = chunk.data();
      const unsigned char* hi = lo + chunk.size();
      ok = r.feed(chunk.data(), chunk.size(), [&](const unsigned char* p, std::uint32_t len) {
        if (p >= lo && p < hi) {
          ASSERT_LE(p + len, hi) << "frame overruns its recv buffer";
        }
        sink.frames.emplace_back(p, p + len);
      });
      ASSERT_LE(r.pending(), kLenPrefixBytes + static_cast<std::size_t>(kMaxFrame));
      at += n;
    }
    ASSERT_EQ(!ok, want.fatal) << "iteration " << iter;
    ASSERT_EQ(sink.frames, want.frames) << "iteration " << iter;
    fatal_streams += want.fatal ? 1 : 0;
  }
  // Both outcomes were exercised.
  EXPECT_GT(fatal_streams, 100);
  EXPECT_LT(fatal_streams, 2900);
}

TEST(SendRing, WrapAroundPreservesBytes) {
  SendRing ring(64);  // power of two already
  ASSERT_EQ(ring.capacity(), 64u);

  // Fill-drain twice past the capacity so head/tail wrap the index mask.
  std::uint64_t produced = 0, consumed = 0;
  std::vector<unsigned char> out;
  for (int round = 0; round < 5; ++round) {
    const auto chunk = payload(40, static_cast<unsigned char>(round));
    ASSERT_GE(ring.free(), chunk.size());
    ring.push(chunk.data(), chunk.size());
    produced += chunk.size();
    while (ring.readable() > 0) {
      std::size_t n = 0;
      const unsigned char* p = ring.peek(&n);
      ASSERT_GT(n, 0u);
      out.insert(out.end(), p, p + n);
      ring.consume(n);
      consumed += n;
    }
  }
  EXPECT_EQ(produced, consumed);
  // Every byte came out in order: re-derive the expected concatenation.
  std::vector<unsigned char> expect;
  for (int round = 0; round < 5; ++round) {
    const auto chunk = payload(40, static_cast<unsigned char>(round));
    expect.insert(expect.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(out, expect);
}

TEST(RingFrameWriter, LaysAPrefixedFrameTheReassemblerReadsBack) {
  SendRing ring(1 << 10);
  const auto body = payload(37, 8);
  {
    RingFrameWriter w(&ring, static_cast<std::uint32_t>(body.size()));
    // Split the appends, as the codec does field by field.
    w.append(body.data(), 10);
    w.append(body.data() + 10, body.size() - 10);
    w.finish();
  }
  ASSERT_EQ(ring.readable(), kLenPrefixBytes + body.size());

  std::size_t n = 0;
  const unsigned char* p = ring.peek(&n);
  FrameReassembler r(kMaxFrame);
  Sink sink;
  ASSERT_TRUE(r.feed(p, n, sink.cb()));
  ring.consume(n);
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(sink.frames[0], body);
}

}  // namespace
}  // namespace ci::net
