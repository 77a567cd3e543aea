//===- exec/Bytecode.h - MiniFort bytecode representation -------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compact stack-bytecode the VM executes (exec/Vm.h). One
/// CodeObject per procedure: a flat instruction vector, a constant
/// pool, a source-location table (trapping instructions reference it by
/// index so the VM reports the same trap locations as the AST
/// interpreter), and the frame layout. Storage classes are resolved at
/// compile time: globals live in one dense slot array, scalar locals
/// and by-value argument temporaries in fixed frame slots, and formals
/// behind one indirection (a per-frame cell-pointer table) so MiniFort's
/// by-reference parameter binding — including reference chains through
/// nested calls — costs a single pointer load.
///
/// Scalar load instructions carry the originating VarRefExpr's id so
/// the VM can fire ExecHooks::OnVarUse; compiler-internal reads (DO-loop
/// bookkeeping) carry id 0, which is never a real ExprId, and stay
/// invisible to hooks exactly like the interpreter's direct cell
/// accesses.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_EXEC_BYTECODE_H
#define IPCP_EXEC_BYTECODE_H

#include "lang/Sema.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ipcp {

/// The opcode set. Operand meanings are given per opcode; A and B are
/// the two immediate fields of Inst.
enum class Op : uint8_t {
  PushConst, ///< A = constant-pool index. Push the constant.

  // Scalar reads. A selects the slot; B is the VarRefExpr id for the
  // OnVarUse hook (0 = internal read, no hook).
  LoadGlobal, ///< A = dense global slot.
  LoadLocal,  ///< A = frame slot (by-value temps and locals share one
              ///< numbering; see CodeObject).
  LoadFormal, ///< A = formal index; reads through the frame's cell table.

  // Scalar writes (definition positions never fire hooks).
  StoreGlobal, ///< A = dense global slot. Pop into it.
  StoreLocal,  ///< A = frame slot.
  StoreFormal, ///< A = formal index (through the cell table).

  // Array element reads: pop the 1-based index, bounds-check it
  // (B = location-table index of the ArrayRefExpr for the trap), push
  // the element. A indexes the owning array table.
  LoadArrGlobal, ///< A = CodeProgram::GlobalArrays index.
  LoadArrLocal,  ///< A = CodeObject::LocalArrays index.

  // Array element writes, split so the index is checked *before* the
  // value is evaluated (the interpreter's observable order): AddrArr*
  // pops the index, bounds-checks, and pushes the element's flat
  // storage offset; StoreArr* pops (value, offset) and writes.
  AddrArrGlobal, ///< A = global array index, B = loc index.
  AddrArrLocal,  ///< A = local array index, B = loc index.
  StoreArrGlobal,
  StoreArrLocal,

  // Binary arithmetic, wrapping two's-complement; pop rhs, pop lhs,
  // push the result. Div/Mod carry B = loc index for the
  // divide-by-zero trap.
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  LogAnd, ///< Non-short-circuit: both operands were already evaluated.
  LogOr,
  Neg,
  LogNot,

  Jump,       ///< A = target instruction index.
  JumpIfZero, ///< Pop; jump to A when zero.

  Step,  ///< One tick of the step budget; B = loc index for the
         ///< step-limit trap. Emitted at every statement entry and once
         ///< per DO/WHILE iteration, mirroring the interpreter's tick().
  Print, ///< Pop into the PRINT trace.
  Read,  ///< Push the next READ-stream value (consumes one position).

  // Call sequence: CheckCall traps on call-depth *before* any argument
  // is evaluated (the interpreter checks depth on invoke() entry, ahead
  // of argument evaluation — observable through hooks and arg traps).
  // Then one Arg* per actual, left to right: plain-variable actuals
  // push their storage cell (by-reference, no value read, no hook);
  // anything else is evaluated and passed by value. Call binds the
  // buffered arguments to the callee's formals and enters it.
  CheckCall,     ///< B = loc index of the call statement.
  ArgValue,      ///< Pop a by-value actual into the argument buffer.
  ArgCellGlobal, ///< A = global slot; buffer the cell.
  ArgCellLocal,  ///< A = frame slot; buffer the cell.
  ArgCellFormal, ///< A = formal index; pass the caller's cell through.
  Call,          ///< A = callee CodeProgram::Procs index; B = loc index
                 ///< of the call statement (memory-limit trap).

  Ret, ///< Pop the frame; from the entry procedure, end the run.
};

/// Returns the stable lowercase mnemonic ("push", "ld.g", ...).
const char *opName(Op O);

/// One instruction. A and B are immediates whose meaning depends on the
/// opcode (slot/target/pool index in A; location-table index or
/// VarRefExpr id in B).
struct Inst {
  Op Opcode;
  uint32_t A = 0;
  uint32_t B = 0;
};

/// A local array's placement inside the frame.
struct LocalArrayInfo {
  uint32_t Offset; ///< First element's frame slot.
  int64_t Size;    ///< Declared element count (indices are 1..Size).
  SymbolId Symbol; ///< The array's symbol (final-state reporting).
};

/// A global array's placement inside the program's flat array storage.
struct GlobalArrayInfo {
  uint32_t Offset;
  int64_t Size;
  SymbolId Symbol;
};

/// One compiled procedure. Frame layout, in slots:
///   [0, NumFormals)            by-value argument temporaries
///   [NumFormals, ArrayBase)    scalar locals, then DO-loop temporaries
///   [ArrayBase, FrameSlots)    local array storage
/// Every activation additionally carries NumFormals cell pointers (the
/// by-reference binding table): formal i resolves to the caller's cell
/// for plain-variable actuals, or to frame slot i for by-value actuals.
struct CodeObject {
  std::string Name;
  uint32_t NumFormals = 0;
  uint32_t ArrayBase = 0;
  uint32_t FrameSlots = 0;
  /// Operand-stack slots this procedure needs (statements never leave
  /// residue, so frames share one stack and the program-wide bound is
  /// the per-procedure maximum, not a sum).
  uint32_t MaxStack = 0;
  std::vector<Inst> Code;
  std::vector<int64_t> Consts;
  std::vector<SourceLoc> Locs;
  /// Formal symbols in parameter order (OnProcEntry hook lookups).
  std::vector<SymbolId> FormalSyms;
  std::vector<LocalArrayInfo> LocalArrays;
  /// Declared cells of LocalArrays (declaredArrayCells), charged
  /// against MaxArrayCells on frame entry. Past the budget the array
  /// offsets above are meaningless: the frame is never built.
  uint64_t ArrayCells = 0;
};

/// A whole compiled program.
struct CodeProgram {
  std::vector<CodeObject> Procs;
  /// Index of the entry procedure (ProcIds are Procs indices, so call
  /// instructions use the AST's callee ids directly).
  uint32_t Entry = 0;
  /// SymbolTable::size() of the source program; final-state reporting
  /// scatters the dense global slots back to SymbolId indexing so VM
  /// results compare bitwise against interpreter results.
  uint32_t NumSymbols = 0;
  /// Dense global slot -> SymbolId.
  std::vector<SymbolId> GlobalSyms;
  /// SymbolId -> dense global slot, or -1 (OnProcEntry lookups).
  std::vector<int32_t> GlobalSlotOfSymbol;
  /// Declared global initializers, applied at run start.
  std::vector<std::pair<uint32_t, int64_t>> GlobalInits;
  std::vector<GlobalArrayInfo> GlobalArrays;
  uint32_t GlobalArraySlots = 0;
  /// Declared cells of GlobalArrays, charged at run start; past
  /// MaxArrayCells no global array storage is allocated.
  uint64_t GlobalArrayCells = 0;
  /// max over Procs of CodeObject::MaxStack.
  uint32_t MaxStack = 0;

  /// Human-readable disassembly of every procedure.
  std::string str() const;
};

} // namespace ipcp

#endif // IPCP_EXEC_BYTECODE_H
