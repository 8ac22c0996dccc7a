// Message-body codecs for the distributed engine's wire protocol.
//
// net/frame.h owns the byte-level frame (magic, length, CRC, request id);
// this header owns what the engine actually says inside those frames —
// batched adjacency fetches, shard partition pushes, and their responses —
// in the same little-endian bounds-checked style as the WAL/checkpoint
// codecs. Every Decode* throws std::runtime_error on malformed bodies
// (short reads can never touch uninitialized memory), which the transport
// layer treats as a corrupt frame: discard, retry, and if the peer keeps
// talking garbage, fail the shard over.
//
//   fetch_request  := store_id:u64 ++ count:u32 ++ id:u32[count]
//   fetch_response := store_id:u64 ++ count:u32 ++ row[count]
//   row            := nf:u32 ++ nri:u32 ++ nro:u32
//                     ++ friends:u32[nf] ++ rejectors:u32[nri]
//                     ++ rejectees:u32[nro]
//   build_shard    := store_id:u64 ++ shard:u32 ++ num_shards:u32
//                     ++ num_nodes:u32 ++ row_count:u32 ++ row[row_count]
//                     (rows in local order: global id = shard + i*num_shards)
//   build_ack      := store_id:u64 ++ shard:u32 ++ row_count:u32
//   error          := code:u32 ++ message:string
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/shard_store.h"
#include "net/frame.h"

namespace rejecto::engine::wire {

inline constexpr std::uint32_t kProtocolVersion = 1;

// ---- fetch ----

struct FetchRequest {
  std::uint64_t store_id = 0;
  std::vector<graph::NodeId> ids;
};

void EncodeFetchRequest(std::uint64_t store_id,
                        std::span<const graph::NodeId> ids,
                        std::vector<unsigned char>& body);
FetchRequest DecodeFetchRequest(std::span<const unsigned char> body);

void EncodeFetchResponse(std::uint64_t store_id,
                         std::span<const NodeAdjacency* const> rows,
                         std::vector<unsigned char>& body);
// Decodes the response's rows straight into `rows` (aligned with the
// request's ids), reusing each row's capacity. Returns false, writing
// nothing, when the body answers another store generation or carries a
// different row count; throws on a malformed body, possibly after some rows
// were overwritten.
bool DecodeFetchResponse(std::span<const unsigned char> body,
                         std::uint64_t store_id,
                         std::span<NodeAdjacency* const> rows);

// ---- shard push (the "update" message of the batched fetch/update
// protocol: the master distributes a rebuilt store's partitions) ----

struct BuildShard {
  std::uint64_t store_id = 0;
  std::uint32_t shard = 0;
  std::uint32_t num_shards = 0;
  graph::NodeId num_nodes = 0;  // global node count of the store
  std::vector<NodeAdjacency> rows;  // local order
};

void EncodeBuildShard(const BuildShard& b, std::vector<unsigned char>& body);
BuildShard DecodeBuildShard(std::span<const unsigned char> body);

struct BuildAck {
  std::uint64_t store_id = 0;
  std::uint32_t shard = 0;
  std::uint32_t row_count = 0;
};

void EncodeBuildAck(const BuildAck& a, std::vector<unsigned char>& body);
BuildAck DecodeBuildAck(std::span<const unsigned char> body);

// ---- error ----

enum class ErrorCode : std::uint32_t {
  kBadRequest = 1,    // undecodable or semantically invalid body
  kUnknownStore = 2,  // fetch names a store_id the worker never received
};

void EncodeError(ErrorCode code, const std::string& message,
                 std::vector<unsigned char>& body);
std::pair<ErrorCode, std::string> DecodeError(
    std::span<const unsigned char> body);

}  // namespace rejecto::engine::wire
