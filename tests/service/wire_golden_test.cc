// Cross-commit golden digests for the fingerprint wire payloads.
//
// wire_test round-trips every payload through its own decoder, which
// cannot notice a change that alters encoder and decoder together. This
// suite pins the bytes themselves: a SHA-1 over the payload of a full
// fingerprint response, a streamed-tails terminal, a kPartial shard and
// an error response, recorded before the two shard types and the two
// response-envelope codecs were folded together. A refactor of the
// response or shard codec must reproduce these digests unchanged.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/strings.h"
#include "crypto/sha1.h"
#include "service/wire.h"

namespace privmark {
namespace {

std::string Digest(const std::string& payload) {
  return HexEncode(Sha1::Hash(payload));
}

KeyVerdict GoldenVerdict(int i) {
  KeyVerdict verdict;
  verdict.key_name = "recipient-" + std::to_string(i);
  verdict.detection.recovered =
      BitVector::FromString(i % 2 == 0 ? "1011" : "0110").ValueOrDie();
  verdict.detection.tuples_selected = 100 + static_cast<size_t>(i);
  verdict.detection.slots_read = 400 + static_cast<size_t>(i);
  verdict.detection.slots_skipped = static_cast<size_t>(i);
  verdict.detection.vote_margin = {0.5, -0.0, 1e-300, 0.125 * i};
  verdict.detection.bit_voted = {true, false, true, i % 2 == 1};
  verdict.margin_ratio = 1.5 + i;
  verdict.mark_match = 0.25 * i;
  verdict.p_value = 1e-9 * (i + 1);
  verdict.score = i == 0 ? -0.0 : 0.375 * i;  // sign bit must survive
  verdict.detected = i == 2;
  return verdict;
}

// Two epochs: three verdicts, then one, each with a consistent ranking.
WireResponse GoldenFingerprintResponse() {
  WireResponse response;
  response.kind = WireFrameType::kFingerprint;
  response.threads_granted = 3;
  FingerprintReport first;
  for (int i = 0; i < 3; ++i) first.verdicts.push_back(GoldenVerdict(i));
  first.ranking = {2, 0, 1};
  first.keys_detected = 1;
  first.collusion = false;
  FingerprintReport second;
  second.verdicts.push_back(GoldenVerdict(7));
  second.ranking = {0};
  second.keys_detected = 0;
  second.collusion = true;
  response.fingerprints = {first, second};
  return response;
}

TEST(WireGoldenTest, FullFingerprintResponse) {
  WireTableEncoder tables;
  EXPECT_EQ(Digest(EncodeWireResponse(GoldenFingerprintResponse(), &tables)),
            "f75d87ef37828c46cfe0d2b5240ba31bfcd71042");
}

TEST(WireGoldenTest, StreamedTailsTerminal) {
  EXPECT_EQ(
      Digest(EncodeWireResponseStreamedTails(GoldenFingerprintResponse())),
      "654347955a3ea4b8177649f3e63da4004228303b");
}

TEST(WireGoldenTest, FingerprintShard) {
  FingerprintShard shard;
  shard.epoch = 1;
  shard.shard = 4;
  shard.first_key = 96;
  shard.verdicts = {GoldenVerdict(3), GoldenVerdict(4)};
  EXPECT_EQ(Digest(EncodeWireFingerprintShard(shard)),
            "2cef2a924be31648199a30d681e5d5aa826c63a4");
}

TEST(WireGoldenTest, ErrorResponse) {
  WireResponse response;
  response.kind = WireFrameType::kFingerprint;
  response.status =
      Status::ResourceExhausted("queue full").WithRetryAfterMs(250);
  response.journal_status = Status::IOError("journal write failed");
  response.threads_granted = 0;
  // An error response carries no body, whatever the members hold.
  response.fingerprints = GoldenFingerprintResponse().fingerprints;
  WireTableEncoder tables;
  EXPECT_EQ(Digest(EncodeWireResponse(response, &tables)),
            "4eef24adef9d7684fb05038d629cba8a2f3e2b11");
}

}  // namespace
}  // namespace privmark
