#include "net/frame.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "util/crc32c.h"

namespace rejecto::net {
namespace {

std::uint32_t ReadU32Le(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t ReadU64Le(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

const char* MsgTypeName(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kFetchRequest: return "fetch_request";
    case MsgType::kFetchResponse: return "fetch_response";
    case MsgType::kBuildShard: return "build_shard";
    case MsgType::kBuildAck: return "build_ack";
    case MsgType::kError: return "error";
    case MsgType::kShutdown: return "shutdown";
  }
  return "unknown";
}

bool IsValidMsgType(std::uint8_t raw) noexcept {
  return raw >= static_cast<std::uint8_t>(MsgType::kHello) &&
         raw <= static_cast<std::uint8_t>(MsgType::kShutdown);
}

void WireWriter::PutString(std::string_view s) {
  PutU32(static_cast<std::uint32_t>(s.size()));
  buf.insert(buf.end(), s.begin(), s.end());
}

void WireWriter::PutU32s(std::span<const std::uint32_t> values) {
  const std::size_t at = buf.size();
  buf.resize(at + 4 * values.size());
  unsigned char* p = buf.data() + at;
  if constexpr (std::endian::native == std::endian::little) {
    if (!values.empty()) std::memcpy(p, values.data(), 4 * values.size());
  } else {
    for (std::uint32_t v : values) {
      for (int i = 0; i < 4; ++i) {
        *p++ = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
      }
    }
  }
}

std::uint8_t WireReader::GetU8() {
  if (Remaining() < 1) {
    throw std::runtime_error("net::WireReader: read past end of body");
  }
  return data_[pos_++];
}

std::uint32_t WireReader::GetU32() {
  if (Remaining() < 4) {
    throw std::runtime_error("net::WireReader: read past end of body");
  }
  const std::uint32_t v = ReadU32Le(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::GetU64() {
  if (Remaining() < 8) {
    throw std::runtime_error("net::WireReader: read past end of body");
  }
  const std::uint64_t v = ReadU64Le(data_ + pos_);
  pos_ += 8;
  return v;
}

void WireReader::GetU32s(std::span<std::uint32_t> out) {
  if (Remaining() / 4 < out.size()) {
    throw std::runtime_error("net::WireReader: u32 array past end of body");
  }
  const unsigned char* p = data_ + pos_;
  if constexpr (std::endian::native == std::endian::little) {
    if (!out.empty()) std::memcpy(out.data(), p, 4 * out.size());
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = ReadU32Le(p + 4 * i);
  }
  pos_ += 4 * out.size();
}

std::string WireReader::GetString() {
  const std::uint32_t len = GetU32();
  if (Remaining() < len) {
    throw std::runtime_error("net::WireReader: string past end of body");
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

std::size_t EncodeFrame(const Message& m, std::vector<unsigned char>& out) {
  const std::uint64_t payload_len = kMinPayloadBytes + m.body.size();
  if (payload_len > kMaxFramePayload) {
    throw std::invalid_argument("net::EncodeFrame: body of " +
                                std::to_string(m.body.size()) +
                                " bytes exceeds the frame payload limit");
  }
  const std::size_t start = out.size();
  out.insert(out.end(), kFrameMagic, kFrameMagic + sizeof(kFrameMagic));
  // len and crc patched below once the payload is in place.
  for (int i = 0; i < 8; ++i) out.push_back(0);
  const std::size_t payload_start = out.size();
  out.push_back(static_cast<unsigned char>(m.type));
  for (int i = 0; i < 8; ++i) {
    out.push_back(
        static_cast<unsigned char>((m.request_id >> (8 * i)) & 0xff));
  }
  out.insert(out.end(), m.body.begin(), m.body.end());

  const auto len = static_cast<std::uint32_t>(payload_len);
  const std::uint32_t crc =
      util::Crc32c(out.data() + payload_start, payload_len);
  for (int i = 0; i < 4; ++i) {
    out[start + 8 + i] = static_cast<unsigned char>((len >> (8 * i)) & 0xff);
    out[start + 12 + i] = static_cast<unsigned char>((crc >> (8 * i)) & 0xff);
  }
  return out.size() - start;
}

void FrameDecoder::Feed(const unsigned char* data, std::size_t len) {
  if (len == 0) return;
  // Compact the consumed prefix before growing (bounded steady-state size).
  if (pos_ > 0 && pos_ == buf_.size()) {
    base_offset_ += pos_;
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    base_offset_ += pos_;
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

DecodeResult FrameDecoder::Next() {
  DecodeResult r;
  r.offset = base_offset_ + pos_;
  if (poisoned_) {
    r.status = DecodeStatus::kCorrupt;
    r.offset = poison_offset_;
    r.reason = poison_reason_;
    return r;
  }
  const std::size_t avail = buf_.size() - pos_;
  auto poison = [&](const std::string& reason) {
    poisoned_ = true;
    poison_offset_ = r.offset;
    poison_reason_ = reason;
    r.status = DecodeStatus::kCorrupt;
    r.reason = reason;
    return r;
  };

  if (avail < kFrameHeaderBytes) {
    r.status = DecodeStatus::kNeedMore;
    return r;
  }
  const unsigned char* p = buf_.data() + pos_;
  if (std::memcmp(p, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return poison("bad frame magic (expected RJNET001)");
  }
  const std::uint32_t len = ReadU32Le(p + 8);
  if (len < kMinPayloadBytes) {
    return poison("frame payload length " + std::to_string(len) +
                  " below the " + std::to_string(kMinPayloadBytes) +
                  "-byte message header");
  }
  if (len > kMaxFramePayload) {
    return poison("frame payload length " + std::to_string(len) +
                  " exceeds the " + std::to_string(kMaxFramePayload) +
                  "-byte limit");
  }
  if (avail < kFrameHeaderBytes + len) {
    r.status = DecodeStatus::kNeedMore;
    return r;
  }
  const std::uint32_t want_crc = ReadU32Le(p + 12);
  const unsigned char* payload = p + kFrameHeaderBytes;
  const std::uint32_t got_crc = util::Crc32c(payload, len);
  if (got_crc != want_crc) {
    return poison("payload CRC mismatch");
  }
  if (!IsValidMsgType(payload[0])) {
    return poison("unknown message type " + std::to_string(payload[0]));
  }
  r.status = DecodeStatus::kFrame;
  r.message.type = static_cast<MsgType>(payload[0]);
  r.message.request_id = ReadU64Le(payload + 1);
  r.message.body.assign(payload + kMinPayloadBytes, payload + len);
  pos_ += kFrameHeaderBytes + len;
  return r;
}

void FrameDecoder::Reset() {
  base_offset_ += buf_.size();
  buf_.clear();
  pos_ = 0;
  poisoned_ = false;
  poison_reason_.clear();
  poison_offset_ = 0;
}

StreamDecodeResult DecodeAll(std::span<const unsigned char> bytes) {
  StreamDecodeResult out;
  FrameDecoder dec;
  dec.Feed(bytes);
  for (;;) {
    DecodeResult r = dec.Next();
    if (r.status == DecodeStatus::kFrame) {
      out.frames.push_back(std::move(r.message));
      continue;
    }
    if (r.status == DecodeStatus::kCorrupt) {
      out.clean = false;
      out.error_offset = r.offset;
      out.reason = r.reason;
      return out;
    }
    // kNeedMore at end-of-input: clean iff nothing is left buffered.
    if (dec.BufferedBytes() != 0) {
      out.clean = false;
      out.error_offset = r.offset;
      out.reason = "truncated frame (" +
                   std::to_string(dec.BufferedBytes()) +
                   " trailing bytes end mid-frame)";
    }
    return out;
  }
}

}  // namespace rejecto::net
