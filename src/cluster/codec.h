// codec.h -- versioned binary codec for cached structures and the
// cluster wire protocol.
//
// The sharded serving layer ships three payload families between
// ranks: whole cache entries (hot-structure replication and work
// migration push the surface, both flat octrees, the Born radii and
// the interaction plan to another shard), request envelopes (router ->
// worker) and response envelopes (worker -> router, with the shard's
// telemetry piggybacked). All three share one frame:
//
//   [magic u32][version u16][kind u8][reserved u8][payload_bytes u64]
//   [payload ...][fnv1a-64 checksum over header+payload]
//
// Decoding is defensive end to end: every primitive read is bounds
// checked, every count field is validated against the bytes actually
// present *before* any allocation sizes off it, enum values and
// cross-array invariants (octree level index vs node count, plan pair
// ids vs tree sizes) are range checked, and every failure is a typed
// CodecError -- symmetric to molecule::IoError in the PR 5 IO layer,
// so callers can switch on the failure class instead of parsing what()
// strings. The fuzz target fuzz_codec drives exactly this surface.
//
// Doubles are encoded as their IEEE-754 bit patterns, never formatted:
// a decoded entry replays cached-hit energies bit-for-bit, which the
// acceptance tests assert through the full gb kernel path.
//
// Versioning rule (see DESIGN.md section 16): the version field is
// bumped on any layout change; decoders reject unknown versions with
// kBadVersion rather than guessing. There is deliberately no
// in-place migration -- a cache entry is derived state, so the peer
// just rebuilds cold when versions disagree.
//
// This header/its .cpp are the *only* sanctioned home for raw-byte
// struct access in the serve/cluster layers; the raw-serialize lint
// rule enforces that everything else goes through these entry points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cluster/shard_telemetry.h"
#include "src/serve/request.h"
#include "src/serve/structure_cache.h"

namespace octgb::cluster {

/// Typed decode failure, mirroring molecule::IoError: construction
/// takes the failure class plus a human-readable message; what() is
/// prefixed with the kind name so logs stay greppable.
class CodecError : public std::runtime_error {
 public:
  enum class Kind {
    kTruncated,      // fewer bytes than the frame or a count demands
    kBadMagic,       // not a codec frame at all
    kBadVersion,     // framed by an incompatible codec revision
    kBadChecksum,    // frame complete but contents corrupted
    kCorruptField,   // a field decoded to an impossible value
    kTrailingBytes,  // payload longer than the fields it encodes
  };

  CodecError(Kind kind, const std::string& message);

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Wire frame kinds. The kind byte in the header must match what the
/// decoder expects; a mismatch is kCorruptField (the frame is valid,
/// it is just not the message the caller asked for).
enum class PayloadKind : std::uint8_t {
  kCacheEntry = 1,
  kRequest = 2,
  kResponse = 3,
};

inline constexpr std::uint32_t kCodecMagic = 0x4f474243u;  // "CBGO" LE
inline constexpr std::uint16_t kCodecVersion = 2;
/// Frame overhead: 16-byte header + 8-byte trailing checksum.
inline constexpr std::size_t kFrameOverheadBytes = 24;

using Bytes = std::vector<std::byte>;

/// Response envelope: the ticket the router used to dispatch, the
/// service's response, and the shard's piggybacked telemetry.
struct WireResponse {
  std::uint64_t ticket = 0;
  int shard = -1;
  serve::Response response;
  ShardTelemetry telemetry;
};

// -- cache entries (replication / migration payloads) --
Bytes encode_entry(const serve::CacheEntry& entry);
/// Decodes and structurally validates an entry: octrees are rebuilt
/// through Octree::from_flat, node point ranges / child spans / leaf
/// ids / plan pair ids are all bounds checked against the decoded
/// sizes, so a hostile buffer cannot produce an entry whose traversal
/// reads out of bounds. Deeper geometric checks remain the job of
/// analysis::validate_octree (run by tests and OCTGB_VALIDATE builds).
std::shared_ptr<serve::CacheEntry> decode_entry(
    std::span<const std::byte> bytes);

// -- request envelope (router -> worker) --
Bytes encode_request(const serve::Request& req, std::uint64_t ticket);
struct WireRequest {
  std::uint64_t ticket = 0;
  serve::Request request;
};
WireRequest decode_request(std::span<const std::byte> bytes);

// -- response envelope (worker -> router) --
Bytes encode_response(const WireResponse& resp);
WireResponse decode_response(std::span<const std::byte> bytes);

/// Recomputes the trailing checksum over frame[0, size-8) in place.
/// Exists for the fuzz harness and corruption tests: after mutating
/// payload bytes, patching the checksum lets the mutation reach the
/// structural validators instead of dying at the checksum gate.
void patch_checksum(std::span<std::byte> frame);

}  // namespace octgb::cluster
