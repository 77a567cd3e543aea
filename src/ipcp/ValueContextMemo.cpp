//===- ipcp/ValueContextMemo.cpp - Shared value-context tables ------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/ValueContextMemo.h"

using namespace ipcp;

const std::vector<LatticeValue> *
ValueContextMemo::Group::find(const std::vector<int64_t> &Context) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Table.find(Context);
  // The node (and the vector it holds) is never mutated or erased after
  // publication, so the pointer outlives the lock.
  return It == Table.end() ? nullptr : &It->second;
}

void ValueContextMemo::Group::record(std::vector<int64_t> &&Context,
                                     std::vector<LatticeValue> &&Values) {
  std::lock_guard<std::mutex> Lock(M);
  if (Table.size() >= MaxContexts)
    return;
  Table.emplace(std::move(Context), std::move(Values));
}

ValueContextMemo::Group &
ValueContextMemo::group(std::string &&Fingerprint,
                        const std::function<void(Group &)> &Init) {
  // FNV-1a over the fingerprint picks the shard; the exact string is the
  // map key, so distinct jump-function lists can never alias a group.
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Fingerprint) {
    H ^= C;
    H *= 1099511628211ull;
  }
  Shard &S = Shards[H % NumShards];
  std::lock_guard<std::mutex> Lock(S.M);
  auto [It, Created] = S.Groups.try_emplace(std::move(Fingerprint));
  if (Created)
    Init(It->second);
  return It->second;
}
