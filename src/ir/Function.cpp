//===- ir/Function.cpp - Basic blocks, functions, modules -----------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

#include <algorithm>

using namespace ipcp;

std::unique_ptr<Function> Function::clone() const {
  auto Copy = std::make_unique<Function>(Proc, Name);
  Copy->Blocks.reserve(Blocks.size());
  for (const auto &BB : Blocks)
    Copy->Blocks.push_back(std::make_unique<BasicBlock>(*BB));
  Copy->Exit = Exit;
  Copy->NumTemps = NumTemps;
  return Copy;
}

void Function::computePreds() {
  for (auto &BB : Blocks)
    BB->Preds.clear();
  for (auto &BB : Blocks)
    for (BlockId Succ : BB->Succs)
      block(Succ).Preds.push_back(BB->Id);
}

std::vector<BlockId> Function::reversePostOrder() const {
  std::vector<BlockId> PostOrder;
  std::vector<uint8_t> Visited(Blocks.size(), 0);
  // Iterative DFS with an explicit stack of (block, next-successor-index).
  std::vector<std::pair<BlockId, size_t>> Stack;
  Stack.push_back({entry(), 0});
  Visited[entry()] = 1;
  while (!Stack.empty()) {
    auto &[Block, NextSucc] = Stack.back();
    const auto &Succs = block(Block).Succs;
    if (NextSucc < Succs.size()) {
      BlockId S = Succs[NextSucc++];
      if (!Visited[S]) {
        Visited[S] = 1;
        Stack.push_back({S, 0});
      }
      continue;
    }
    PostOrder.push_back(Block);
    Stack.pop_back();
  }
  std::reverse(PostOrder.begin(), PostOrder.end());
  return PostOrder;
}

void Function::removeUnreachableBlocks() {
  std::vector<BlockId> Order = reversePostOrder();
  std::vector<uint8_t> Reachable(Blocks.size(), 0);
  for (BlockId B : Order)
    Reachable[B] = 1;
  // Keep the exit block alive so every function has one, even when all
  // paths diverge.
  if (Exit != InvalidBlock && !Reachable[Exit]) {
    Reachable[Exit] = 1;
    Order.push_back(Exit);
  }

  if (Order.size() == Blocks.size()) {
    computePreds(); // Nothing to prune, but callers rely on fresh preds.
    return;
  }

  std::vector<BlockId> Remap(Blocks.size(), InvalidBlock);
  std::vector<std::unique_ptr<BasicBlock>> Kept;
  Kept.reserve(Order.size());
  // Preserve original relative order so block ids remain stable-ish and
  // entry stays 0.
  for (BlockId Old = 0, E = static_cast<BlockId>(Blocks.size()); Old != E;
       ++Old) {
    if (!Reachable[Old])
      continue;
    Remap[Old] = static_cast<BlockId>(Kept.size());
    Kept.push_back(std::move(Blocks[Old]));
  }
  for (auto &BB : Kept) {
    BB->Id = Remap[BB->Id];
    for (BlockId &S : BB->Succs)
      S = Remap[S];
  }
  Blocks = std::move(Kept);
  Exit = Remap[Exit];
  computePreds();
}

size_t Function::numInstrs() const {
  size_t N = 0;
  for (const auto &BB : Blocks)
    N += BB->Instrs.size();
  return N;
}
