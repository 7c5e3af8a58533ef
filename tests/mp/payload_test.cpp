/// \file payload_test.cpp
/// \brief Unit tests for the message codec.

#include "mp/payload.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/error.hpp"

namespace pml::mp {
namespace {

struct Pod {
  int a;
  double b;
  friend bool operator==(const Pod&, const Pod&) = default;
};

TEST(Codec, ScalarRoundTrip) {
  EXPECT_EQ(Codec<int>::decode(Codec<int>::encode(-42)), -42);
  EXPECT_EQ(Codec<long>::decode(Codec<long>::encode(1L << 40)), 1L << 40);
  EXPECT_DOUBLE_EQ(Codec<double>::decode(Codec<double>::encode(3.25)), 3.25);
  EXPECT_EQ(Codec<char>::decode(Codec<char>::encode('x')), 'x');
}

TEST(Codec, PodStructRoundTrip) {
  const Pod p{7, -1.5};
  EXPECT_EQ(Codec<Pod>::decode(Codec<Pod>::encode(p)), p);
}

TEST(Codec, ScalarSizeMismatchThrows) {
  Payload wrong(3);
  EXPECT_THROW(Codec<int>::decode(wrong), RuntimeFault);
}

TEST(Codec, VectorRoundTrip) {
  const std::vector<int> v{1, -2, 3, -4};
  EXPECT_EQ(Codec<std::vector<int>>::decode(Codec<std::vector<int>>::encode(v)), v);
}

TEST(Codec, EmptyVectorRoundTrip) {
  const std::vector<double> v;
  EXPECT_EQ(Codec<std::vector<double>>::decode(Codec<std::vector<double>>::encode(v)), v);
}

TEST(Codec, VectorSizeMismatchThrows) {
  Payload wrong(sizeof(int) + 1);
  EXPECT_THROW(Codec<std::vector<int>>::decode(wrong), RuntimeFault);
}

TEST(Codec, StringRoundTrip) {
  const std::string s = "hello from process 3";
  EXPECT_EQ(Codec<std::string>::decode(Codec<std::string>::encode(s)), s);
  EXPECT_EQ(Codec<std::string>::decode(Codec<std::string>::encode("")), "");
}

TEST(Codec, StringWithEmbeddedNull) {
  std::string s = "a";
  s.push_back('\0');
  s += "b";
  EXPECT_EQ(Codec<std::string>::decode(Codec<std::string>::encode(s)), s);
}

TEST(Codec, ElementCount) {
  const auto payload = Codec<std::vector<std::int32_t>>::encode({1, 2, 3});
  EXPECT_EQ(element_count<std::int32_t>(payload), 3u);
  EXPECT_EQ(element_count<std::int64_t>(Payload(16)), 2u);
}

TEST(Codec, ElementCountThrowsOnRaggedSize) {
  // Same contract as Codec<std::vector<T>>::decode: a payload that is not
  // a whole number of elements is an error, not a silent truncation.
  const Payload ragged(10);  // 10 % 8 != 0
  EXPECT_THROW(element_count<std::int64_t>(ragged), RuntimeFault);
  EXPECT_THROW(Codec<std::vector<std::int64_t>>::decode(ragged), RuntimeFault);
  EXPECT_EQ(element_count<std::uint8_t>(ragged), 10u);  // bytes always divide
}

TEST(Codec, PayloadIdentityRoundTrip) {
  Payload p;
  const char msg[] = "pre-serialized blob";
  p.append(msg, sizeof(msg));
  const Payload copy = Codec<Payload>::encode(p);
  EXPECT_EQ(copy, p);
  EXPECT_EQ(Codec<Payload>::decode(copy), p);
  // Rvalue decode moves the bytes out rather than copying.
  Payload big(200);
  const std::byte* backing = big.data();
  Payload moved = Codec<Payload>::decode(std::move(big));
  EXPECT_EQ(moved.data(), backing);
}

// ---------------------------------------------------------------------------
// InlinePayload small-buffer behavior.
// ---------------------------------------------------------------------------

Payload filled(std::size_t n) {
  Payload p;
  for (std::size_t i = 0; i < n; ++i) p.push_back(static_cast<std::byte>(i));
  return p;
}

TEST(InlinePayloadSbo, SmallBodiesStayInline) {
  EXPECT_FALSE(Payload().spilled());
  EXPECT_FALSE(Payload(1).spilled());
  EXPECT_FALSE(Payload(InlinePayload::kInlineBytes).spilled());
  EXPECT_FALSE(filled(InlinePayload::kInlineBytes).spilled());
  const auto scalar = Codec<double>::encode(3.5);
  EXPECT_FALSE(scalar.spilled());
}

TEST(InlinePayloadSbo, LargeBodiesSpillAndKeepContents) {
  const std::size_t n = InlinePayload::kInlineBytes + 1;
  Payload p = filled(n);
  EXPECT_TRUE(p.spilled());
  ASSERT_EQ(p.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(p.data()[i], static_cast<std::byte>(i));
  }
}

TEST(InlinePayloadSbo, GrowthAcrossTheBoundaryPreservesBytes) {
  Payload p = filled(InlinePayload::kInlineBytes);  // exactly full, inline
  EXPECT_FALSE(p.spilled());
  p.push_back(static_cast<std::byte>(0xAB));  // forces the spill
  EXPECT_TRUE(p.spilled());
  ASSERT_EQ(p.size(), InlinePayload::kInlineBytes + 1);
  for (std::size_t i = 0; i < InlinePayload::kInlineBytes; ++i) {
    EXPECT_EQ(p.data()[i], static_cast<std::byte>(i));
  }
  EXPECT_EQ(p.data()[InlinePayload::kInlineBytes], static_cast<std::byte>(0xAB));
}

TEST(InlinePayloadSbo, CopyAndMoveInline) {
  const Payload src = filled(16);
  Payload copy = src;
  EXPECT_EQ(copy, src);
  EXPECT_FALSE(copy.spilled());
  Payload moved = std::move(copy);
  EXPECT_EQ(moved, src);
  EXPECT_FALSE(moved.spilled());
}

TEST(InlinePayloadSbo, MoveOfSpilledBodyStealsTheBuffer) {
  Payload src = filled(100);
  const std::byte* backing = src.data();
  Payload moved = std::move(src);
  EXPECT_EQ(moved.data(), backing);  // pointer steal, no byte copy
  EXPECT_TRUE(moved.spilled());
  EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move): spec'd empty
  // The moved-from object is fully reusable.
  src.push_back(static_cast<std::byte>(1));
  EXPECT_EQ(src.size(), 1u);
}

TEST(InlinePayloadSbo, CopyAssignSpilledAndSelfConsistency) {
  const Payload big = filled(150);
  Payload p = filled(8);
  p = big;
  EXPECT_EQ(p, big);
  p = p;  // self-assignment is a no-op
  EXPECT_EQ(p, big);
  Payload q = filled(10);
  q = std::move(p);
  EXPECT_EQ(q, big);
}

TEST(InlinePayloadSbo, InsertMatchesVectorSemantics) {
  const std::vector<std::byte> chunk(70, static_cast<std::byte>(0x5A));
  Payload p;
  p.insert(p.end(), chunk.begin(), chunk.end());  // append with spill
  ASSERT_EQ(p.size(), 70u);
  const std::byte mark[] = {static_cast<std::byte>(1), static_cast<std::byte>(2)};
  p.insert(p.begin(), mark, mark + 2);  // front insert shifts the body
  ASSERT_EQ(p.size(), 72u);
  EXPECT_EQ(p.data()[0], static_cast<std::byte>(1));
  EXPECT_EQ(p.data()[1], static_cast<std::byte>(2));
  EXPECT_EQ(p.data()[2], static_cast<std::byte>(0x5A));
}

TEST(InlinePayloadSbo, PopBackRemovesLastAndToleratesEmpty) {
  Payload p = filled(3);
  p.pop_back();
  EXPECT_EQ(p, filled(2));
  p.pop_back();
  p.pop_back();
  EXPECT_TRUE(p.empty());
  // The regression: pop_back on empty used to wrap size_ to SIZE_MAX,
  // poisoning every later append. It must stay a no-op.
  p.pop_back();
  EXPECT_TRUE(p.empty());
  p.push_back(static_cast<std::byte>(7));
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.data()[0], static_cast<std::byte>(7));
}

// Copy/move construction and assignment across all four (inline, spilled)
// source/target pairs. The spilled->inline assignments exercise assign()'s
// grow_discard path; inline->spilled must not leak the old heap buffer
// (ASan would catch it).
TEST(InlinePayloadSbo, CopyAssignAcrossAllStorageQuadrants) {
  const std::size_t kInline = 16;
  const std::size_t kSpill = InlinePayload::kInlineBytes + 40;
  for (std::size_t src_n : {kInline, kSpill}) {
    for (std::size_t dst_n : {kInline, kSpill}) {
      const Payload src = filled(src_n);
      Payload dst = filled(dst_n);
      dst = src;
      EXPECT_EQ(dst, src);
      // A spilled target keeps its heap capacity (like std::vector), so
      // only the reverse implication holds: a big body forces a spill.
      if (src_n > InlinePayload::kInlineBytes) {
        EXPECT_TRUE(dst.spilled());
      }

      Payload ctor_copy = src;
      EXPECT_EQ(ctor_copy, src);

      Payload move_src = filled(src_n);
      Payload move_dst = filled(dst_n);
      move_dst = std::move(move_src);
      EXPECT_EQ(move_dst, src);
      Payload move_ctor = filled(src_n);
      Payload moved(std::move(move_ctor));
      EXPECT_EQ(moved, src);
    }
  }
}

TEST(InlinePayloadSbo, AssignIntoSmallerSpilledBuffer) {
  // Target is spilled but with less capacity than the source needs:
  // assign() must take the grow_discard path and still end up exact.
  Payload dst = filled(InlinePayload::kInlineBytes + 1);  // small spill
  ASSERT_TRUE(dst.spilled());
  const Payload src = filled(4 * InlinePayload::kInlineBytes);
  ASSERT_GT(src.size(), dst.capacity());
  dst = src;
  EXPECT_EQ(dst, src);
}

TEST(InlinePayloadSbo, SelfInsertAtInlineCapacityBoundary) {
  // Self-append of the whole buffer exactly at the inline boundary: the
  // grow() inside insert used to free (or shift) the source range before
  // reading it — a use-after-free ASan flags. After the fix the source is
  // detached first.
  Payload p = filled(InlinePayload::kInlineBytes);  // inline, at capacity
  ASSERT_FALSE(p.spilled());
  p.insert(p.end(), p.begin(), p.end());
  ASSERT_EQ(p.size(), 2 * InlinePayload::kInlineBytes);
  EXPECT_TRUE(p.spilled());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.data()[i],
              static_cast<std::byte>(i % InlinePayload::kInlineBytes));
  }
}

TEST(InlinePayloadSbo, SelfInsertSpilledWithReallocation) {
  const std::size_t n = 3 * InlinePayload::kInlineBytes;
  Payload p = filled(n);
  ASSERT_TRUE(p.spilled());
  p.reserve(p.size());  // any growth below must reallocate
  p.insert(p.end(), p.begin(), p.end());
  ASSERT_EQ(p.size(), 2 * n);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.data()[i], static_cast<std::byte>((i % n) & 0xFF));
  }
}

TEST(InlinePayloadSbo, SelfInsertTailIntoMiddleWithoutGrowth) {
  // No reallocation, but the tail memmove shifts the source range before
  // the old copy loop read it — corruption even without a grow(). Insert
  // the last two bytes into the middle and check against std::vector.
  Payload p = filled(8);
  p.reserve(64);
  std::vector<std::byte> v(p.begin(), p.end());
  p.insert(p.begin() + 4, p.end() - 2, p.end());
  v.insert(v.begin() + 4, {v[6], v[7]});
  ASSERT_EQ(p.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(p.data()[i], v[i]);
}

TEST(InlinePayloadSbo, ResizeClearAndEquality) {
  Payload p = filled(5);
  p.resize(8);  // zero-fills the tail
  EXPECT_EQ(p.data()[7], std::byte{0});
  p.resize(3);
  EXPECT_EQ(p.size(), 3u);
  EXPECT_NE(p, filled(5));
  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p, Payload());
}

}  // namespace
}  // namespace pml::mp
