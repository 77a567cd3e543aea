//===- ir/Function.h - Basic blocks, functions, modules ---------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The control-flow-graph containers: BasicBlock, Function (one lowered
/// procedure), and Module (one lowered program).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IR_FUNCTION_H
#define IPCP_IR_FUNCTION_H

#include "ir/Instr.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace ipcp {

/// Index of a basic block within its function.
using BlockId = uint32_t;
/// Sentinel for "no block".
inline constexpr BlockId InvalidBlock = UINT32_MAX;

/// A straight-line sequence of instructions ending in one terminator.
struct BasicBlock {
  BlockId Id = InvalidBlock;
  std::vector<Instr> Instrs;
  /// Successor blocks. Branch: [true-target, false-target]; Jump:
  /// [target]; Ret: [].
  std::vector<BlockId> Succs;
  /// Predecessor blocks, in a deterministic order (filled by
  /// Function::computePreds). Phi incoming values are parallel to this.
  std::vector<BlockId> Preds;

  const Instr &terminator() const {
    assert(!Instrs.empty() && Instrs.back().isTerminator() &&
           "block has no terminator");
    return Instrs.back();
  }
};

/// One lowered procedure. Block 0 is the entry; ExitBlock holds the
/// single Ret instruction (lowering funnels every return through it).
class Function {
public:
  Function(ProcId Proc, std::string Name)
      : Proc(Proc), Name(std::move(Name)) {}

  ProcId proc() const { return Proc; }
  const std::string &name() const { return Name; }

  BlockId entry() const { return 0; }
  BlockId exitBlock() const { return Exit; }
  void setExitBlock(BlockId B) { Exit = B; }

  BasicBlock &block(BlockId Id) { return *Blocks.at(Id); }
  const BasicBlock &block(BlockId Id) const { return *Blocks.at(Id); }
  size_t numBlocks() const { return Blocks.size(); }

  BlockId addBlock() {
    auto BB = std::make_unique<BasicBlock>();
    BB->Id = static_cast<BlockId>(Blocks.size());
    // Typical lowered blocks carry a handful of quads; reserving here
    // avoids the 1->2->4 regrowth copies on every block the frontend
    // emits (lowering is on the serve cold path).
    BB->Instrs.reserve(4);
    Blocks.push_back(std::move(BB));
    return Blocks.back()->Id;
  }

  TempId newTemp() { return NumTemps++; }
  TempId numTemps() const { return NumTemps; }

  /// Recomputes every block's predecessor list from the successor lists.
  void computePreds();

  /// Removes blocks not reachable from the entry, compacting block ids
  /// and rewriting successor lists. Recomputes predecessors. The exit
  /// block is preserved even if unreachable (a function that loops
  /// forever), as analyses assume it exists.
  void removeUnreachableBlocks();

  /// Returns the reachable blocks in reverse postorder. The entry block
  /// is first; every dominator appears before the blocks it dominates.
  std::vector<BlockId> reversePostOrder() const;

  size_t numInstrs() const;

  /// A deep copy (a session over an id-preserving clone of the program
  /// adopts the lowering of procedures the clone left unchanged).
  std::unique_ptr<Function> clone() const;

private:
  ProcId Proc;
  std::string Name;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  BlockId Exit = InvalidBlock;
  TempId NumTemps = 0;
};

/// One lowered program: one Function per Proc, in ProcId order.
struct Module {
  std::vector<std::unique_ptr<Function>> Functions;

  Function &function(ProcId P) { return *Functions.at(P); }
  const Function &function(ProcId P) const { return *Functions.at(P); }
};

} // namespace ipcp

#endif // IPCP_IR_FUNCTION_H
