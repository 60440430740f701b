/**
 * @file
 * The FNV-1a fingerprint primitives behind every cache key: published
 * 64-bit test vectors, chaining, byte (not char) semantics, and the
 * fixed-width hex rendering that doubles as a file name.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/hash.h"

namespace lsqca {
namespace {

TEST(Hash, Fnv1aMatchesThePublishedVectors)
{
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hash, ChainingEqualsHashingTheConcatenation)
{
    EXPECT_EQ(fnv1a64("bar", fnv1a64("foo")), fnv1a64("foobar"));
    EXPECT_EQ(fnv1a64("", fnv1a64("foobar")), fnv1a64("foobar"));
    // Order matters: the hash is not a bag of bytes.
    EXPECT_NE(fnv1a64("ab"), fnv1a64("ba"));
}

TEST(Hash, HighBitBytesHashAsUnsigned)
{
    // A signed char would sign-extend 0xff before the xor; the cache
    // key must be the same wherever char is signed.
    const std::string byte(1, static_cast<char>(0xff));
    EXPECT_EQ(fnv1a64(byte), 0xaf64724c8602eb6eULL);
    EXPECT_EQ(fnv1a64(byte), (kFnv1a64Offset ^ 0xffULL) * kFnv1a64Prime);
    // Embedded NULs are content too.
    EXPECT_NE(fnv1a64(std::string("a\0b", 3)), fnv1a64("ab"));
}

TEST(Hash, HexIsSixteenLowercaseZeroPaddedDigits)
{
    EXPECT_EQ(hashToHex(0), "0000000000000000");
    EXPECT_EQ(hashToHex(0xabcULL), "0000000000000abc");
    EXPECT_EQ(hashToHex(~0ULL), "ffffffffffffffff");
    EXPECT_EQ(hashToHex(0x0123456789abcdefULL), "0123456789abcdef");
    EXPECT_EQ(contentFingerprint("foobar"), "85944171f73967e8");
    for (const std::uint64_t value : {0ULL, 1ULL, 0xabcULL, ~0ULL})
        EXPECT_TRUE(isFingerprint(hashToHex(value)));
}

TEST(Hash, IsFingerprintRejectsAnythingButSixteenLowercaseHexDigits)
{
    EXPECT_FALSE(isFingerprint(""));
    EXPECT_FALSE(isFingerprint("85944171f73967e"));
    EXPECT_FALSE(isFingerprint("85944171f73967e8a"));
    EXPECT_FALSE(isFingerprint("85944171F73967E8"));
    EXPECT_FALSE(isFingerprint("85944171f73967e "));
    EXPECT_FALSE(isFingerprint("../../etc/passwd"));
}

} // namespace
} // namespace lsqca
