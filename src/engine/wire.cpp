#include "engine/wire.h"

#include <stdexcept>

namespace rejecto::engine::wire {
namespace {

void PutRow(net::WireWriter& w, const NodeAdjacency& row) {
  w.PutU32(static_cast<std::uint32_t>(row.friends.size()));
  w.PutU32(static_cast<std::uint32_t>(row.rejectors.size()));
  w.PutU32(static_cast<std::uint32_t>(row.rejectees.size()));
  w.PutU32s(row.friends);
  w.PutU32s(row.rejectors);
  w.PutU32s(row.rejectees);
}

// Replaces `out` with `count` ids, reusing its capacity.
void GetIds(net::WireReader& r, std::uint32_t count,
            std::vector<graph::NodeId>& out) {
  // A corrupt count would otherwise allocate gigabytes before the reader
  // notices the body is short; each id is 4 bytes, so bound by Remaining.
  if (r.Remaining() < 4ull * count) {
    throw std::runtime_error("engine::wire: id list past end of body");
  }
  out.resize(count);
  r.GetU32s(out);
}

void GetRowInto(net::WireReader& r, NodeAdjacency& row) {
  const std::uint32_t nf = r.GetU32();
  const std::uint32_t nri = r.GetU32();
  const std::uint32_t nro = r.GetU32();
  GetIds(r, nf, row.friends);
  GetIds(r, nri, row.rejectors);
  GetIds(r, nro, row.rejectees);
}

void ExpectDrained(const net::WireReader& r, const char* what) {
  if (r.Remaining() != 0) {
    throw std::runtime_error(std::string("engine::wire: trailing garbage ") +
                             "after " + what + " body");
  }
}

}  // namespace

void EncodeFetchRequest(std::uint64_t store_id,
                        std::span<const graph::NodeId> ids,
                        std::vector<unsigned char>& body) {
  net::WireWriter w;
  w.buf.swap(body);
  w.buf.clear();
  w.PutU64(store_id);
  w.PutU32(static_cast<std::uint32_t>(ids.size()));
  w.PutU32s(ids);
  body.swap(w.buf);
}

FetchRequest DecodeFetchRequest(std::span<const unsigned char> body) {
  net::WireReader r(body);
  FetchRequest req;
  req.store_id = r.GetU64();
  const std::uint32_t count = r.GetU32();
  GetIds(r, count, req.ids);
  ExpectDrained(r, "fetch_request");
  return req;
}

void EncodeFetchResponse(std::uint64_t store_id,
                         std::span<const NodeAdjacency* const> rows,
                         std::vector<unsigned char>& body) {
  net::WireWriter w;
  w.buf.swap(body);
  w.buf.clear();
  std::size_t bytes = 12;
  for (const NodeAdjacency* row : rows) bytes += row->WireBytes();
  w.buf.reserve(bytes);
  w.PutU64(store_id);
  w.PutU32(static_cast<std::uint32_t>(rows.size()));
  for (const NodeAdjacency* row : rows) PutRow(w, *row);
  body.swap(w.buf);
}

bool DecodeFetchResponse(std::span<const unsigned char> body,
                         std::uint64_t store_id,
                         std::span<NodeAdjacency* const> rows) {
  net::WireReader r(body);
  if (r.GetU64() != store_id || r.GetU32() != rows.size()) return false;
  for (NodeAdjacency* row : rows) GetRowInto(r, *row);
  ExpectDrained(r, "fetch_response");
  return true;
}

void EncodeBuildShard(const BuildShard& b, std::vector<unsigned char>& body) {
  net::WireWriter w;
  w.buf.swap(body);
  w.buf.clear();
  w.PutU64(b.store_id);
  w.PutU32(b.shard);
  w.PutU32(b.num_shards);
  w.PutU32(b.num_nodes);
  w.PutU32(static_cast<std::uint32_t>(b.rows.size()));
  for (const NodeAdjacency& row : b.rows) PutRow(w, row);
  body.swap(w.buf);
}

BuildShard DecodeBuildShard(std::span<const unsigned char> body) {
  net::WireReader r(body);
  BuildShard b;
  b.store_id = r.GetU64();
  b.shard = r.GetU32();
  b.num_shards = r.GetU32();
  b.num_nodes = r.GetU32();
  if (b.num_shards == 0 || b.shard >= b.num_shards) {
    throw std::runtime_error(
        "engine::wire: build_shard with shard " + std::to_string(b.shard) +
        " of " + std::to_string(b.num_shards));
  }
  const std::uint32_t count = r.GetU32();
  // Every row is at least its three counts; bound before allocating.
  if (r.Remaining() / 12 < count) {
    throw std::runtime_error("engine::wire: build_shard rows past end of body");
  }
  b.rows.resize(count);
  for (NodeAdjacency& row : b.rows) GetRowInto(r, row);
  ExpectDrained(r, "build_shard");
  return b;
}

void EncodeBuildAck(const BuildAck& a, std::vector<unsigned char>& body) {
  net::WireWriter w;
  w.buf.swap(body);
  w.buf.clear();
  w.PutU64(a.store_id);
  w.PutU32(a.shard);
  w.PutU32(a.row_count);
  body.swap(w.buf);
}

BuildAck DecodeBuildAck(std::span<const unsigned char> body) {
  net::WireReader r(body);
  BuildAck a;
  a.store_id = r.GetU64();
  a.shard = r.GetU32();
  a.row_count = r.GetU32();
  ExpectDrained(r, "build_ack");
  return a;
}

void EncodeError(ErrorCode code, const std::string& message,
                 std::vector<unsigned char>& body) {
  net::WireWriter w;
  w.buf.swap(body);
  w.buf.clear();
  w.PutU32(static_cast<std::uint32_t>(code));
  w.PutString(message);
  body.swap(w.buf);
}

std::pair<ErrorCode, std::string> DecodeError(
    std::span<const unsigned char> body) {
  net::WireReader r(body);
  const auto code = static_cast<ErrorCode>(r.GetU32());
  std::string message = r.GetString();
  ExpectDrained(r, "error");
  return {code, std::move(message)};
}

}  // namespace rejecto::engine::wire
