// Wire frame codec for the distributed engine (RJNET001).
//
// Every master<->worker exchange — batched adjacency fetches, shard
// partition pushes, control traffic — travels as length-prefixed,
// CRC32C-checked frames so the receiving end can always tell a torn or
// corrupted frame from a valid one, byte-exactly, on both the in-process
// simulated network and the real socket backend:
//
//   frame   := magic "RJNET001" ++ len:u32le ++ crc:u32le ++ payload[len]
//   payload := type:u8 ++ request_id:u64le ++ body[len-9]
//
// `crc` is CRC32C of the payload. `request_id` is assigned by the master
// and echoed by the worker's response, which is what makes retries
// idempotent: a duplicated or straggling response is discarded on id
// mismatch instead of being misattributed to a later request.
//
// Decode invariants (pinned by net_frame_test's every-byte truncation and
// single-byte corruption sweeps, mirroring wal_test):
//   * Decoding NEVER crashes or reads past the input, whatever the bytes.
//   * A truncated stream yields exactly the prefix of intact frames plus a
//     kNeedMore tail; a corrupted stream stops at the first bad frame and
//     reports its stream offset and a human-readable reason.
//   * No single-byte corruption can be decoded as a different valid frame
//     (the magic check, length bound, and payload CRC close every hole).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rejecto::net {

inline constexpr unsigned char kFrameMagic[8] = {'R', 'J', 'N', 'E',
                                                 'T', '0', '0', '1'};
inline constexpr std::size_t kFrameHeaderBytes = 16;  // magic + len + crc
// One frame carries at most one shard partition push; 256 MiB bounds a
// corrupt length field long before a resize can take the process down.
inline constexpr std::uint32_t kMaxFramePayload = 256u << 20;
inline constexpr std::size_t kMinPayloadBytes = 9;  // type + request_id

enum class MsgType : std::uint8_t {
  kHello = 1,          // worker -> master: protocol version + worker index
  kFetchRequest = 2,   // master -> worker: batched adjacency fetch
  kFetchResponse = 3,  // worker -> master: the requested rows
  kBuildShard = 4,     // master -> worker: push a store's shard partition
  kBuildAck = 5,       // worker -> master: partition installed
  kError = 6,          // either direction: code + message
  kShutdown = 7,       // master -> worker: drain and exit
};

const char* MsgTypeName(MsgType type) noexcept;
bool IsValidMsgType(std::uint8_t raw) noexcept;

struct Message {
  MsgType type = MsgType::kError;
  std::uint64_t request_id = 0;
  std::vector<unsigned char> body;
};

// Little-endian bounds-checked byte codec for message bodies (the net-layer
// sibling of stream::ByteWriter, kept here so rejecto_net depends only on
// rejecto_util).
struct WireWriter {
  std::vector<unsigned char> buf;

  void PutU8(std::uint8_t v) { buf.push_back(v); }
  void PutU32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
    }
  }
  void PutU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
    }
  }
  void PutString(std::string_view s);
  // Appends the values as little-endian u32s: one bulk copy on
  // little-endian hosts, byte by byte elsewhere.
  void PutU32s(std::span<const std::uint32_t> values);
};

// Throws std::runtime_error on reads past the end: a malformed body that
// slipped past the frame CRC can never read uninitialized memory.
class WireReader {
 public:
  WireReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(std::span<const unsigned char> bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  std::uint8_t GetU8();
  std::uint32_t GetU32();
  std::uint64_t GetU64();
  std::string GetString();
  // Fills `out` with the next out.size() little-endian u32s; throws before
  // copying anything when the body holds fewer.
  void GetU32s(std::span<std::uint32_t> out);
  std::size_t Remaining() const noexcept { return size_ - pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// Appends the encoded frame for `m` to `out` and returns the frame's size
// in bytes. Throws std::invalid_argument when the body exceeds
// kMaxFramePayload (nothing legitimate comes close).
std::size_t EncodeFrame(const Message& m, std::vector<unsigned char>& out);

enum class DecodeStatus : std::uint8_t {
  kFrame,     // one intact frame decoded
  kNeedMore,  // the buffered bytes end mid-frame; feed more
  kCorrupt,   // the stream is poisoned at `offset` for `reason`
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  Message message;            // kFrame only
  std::uint64_t offset = 0;   // stream offset of the frame this refers to
  std::string reason;         // kCorrupt only
};

// Incremental frame parser over a byte stream (a socket, or a simulated
// link's delivery buffer). Feed bytes as they arrive; Next() pops intact
// frames until the buffer runs dry (kNeedMore) or turns out to be poisoned
// (kCorrupt — sticky: a framed stream cannot be resynchronized after a bad
// length, so the connection must be torn down and rebuilt).
class FrameDecoder {
 public:
  void Feed(const unsigned char* data, std::size_t len);
  void Feed(std::span<const unsigned char> bytes) {
    Feed(bytes.data(), bytes.size());
  }

  DecodeResult Next();

  // Stream offset of the first byte not yet consumed by a decoded frame.
  std::uint64_t StreamOffset() const noexcept { return base_offset_ + pos_; }
  std::size_t BufferedBytes() const noexcept { return buf_.size() - pos_; }
  bool Poisoned() const noexcept { return poisoned_; }

  // Drops buffered bytes and the poison flag (used after a reconnect; the
  // stream offset keeps counting so diagnostics stay monotonic).
  void Reset();

 private:
  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;          // consumed prefix of buf_
  std::uint64_t base_offset_ = 0;  // stream offset of buf_[0]
  bool poisoned_ = false;
  std::string poison_reason_;
  std::uint64_t poison_offset_ = 0;
};

// One-shot decode of a complete byte stream (the codec-hardening test's
// entry point). `clean` is true iff every byte was consumed by an intact
// frame; otherwise `error_offset`/`reason` name the first torn or corrupt
// frame, and `frames` holds the intact prefix.
struct StreamDecodeResult {
  std::vector<Message> frames;
  bool clean = true;
  std::uint64_t error_offset = 0;
  std::string reason;
};

StreamDecodeResult DecodeAll(std::span<const unsigned char> bytes);

}  // namespace rejecto::net
