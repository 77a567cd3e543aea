//===- exec/Vm.cpp - MiniFort bytecode virtual machine --------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "exec/Vm.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

// Dispatch strategy. GCC and Clang support computed goto (labels as
// values), which turns the dispatch into one indirect branch *per
// handler* instead of one shared branch at the top of a switch loop —
// the per-handler branches train the predictor on each opcode's actual
// successors, which is worth a double-digit percentage on this
// interpreter's fuzz/oracle workload. Other compilers (and builds
// defining IPCP_VM_FORCE_SWITCH, which CMake exposes as
// -DIPCP_VM_SWITCH_DISPATCH=ON) fall back to the plain switch; both
// expand the same VM_CASE/VM_NEXT handler bodies, so the semantics
// cannot drift between the two.
#if (defined(__GNUC__) || defined(__clang__)) && !defined(IPCP_VM_FORCE_SWITCH)
#define IPCP_VM_COMPUTED_GOTO 1
#else
#define IPCP_VM_COMPUTED_GOTO 0
#endif

using namespace ipcp;

const char *ipcp::vmDispatchMode() {
#if IPCP_VM_COMPUTED_GOTO
  return "computed-goto";
#else
  return "switch";
#endif
}

namespace {

// Wrapping two's-complement arithmetic, same as the interpreter's
// (computed in unsigned space so the VM is UB-free under UBSan).
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

/// One activation. Reused across calls at the same depth; a depth's
/// Slots buffer is only resized while no deeper frame exists (frames
/// are strictly LIFO), so by-reference cells handed down to callees
/// stay stable.
struct Frame {
  std::vector<int64_t> Slots;
  std::vector<int64_t *> Refs;
  const CodeObject *RetCode = nullptr;
  uint32_t RetIp = 0;
};

struct Arg {
  int64_t Value;
  int64_t *Cell; ///< Null for by-value actuals.
};

/// Per-thread run state, reused across runs so the fuzzer/oracle hot
/// path (many short runs over small programs) pays no per-run heap
/// allocation: the vectors keep their capacity between runs and are
/// re-sized (never re-created) at the top of run(). Every buffer is
/// fully re-initialized before use, so reuse is invisible to program
/// semantics; each thread owns its own scratch, so concurrent run()
/// calls stay safe.
struct VmScratch {
  std::vector<int64_t> Globals;
  std::vector<int64_t> GlobalArr;
  std::vector<int64_t> Stack;
  std::vector<Frame> Frames;
  std::vector<Arg> Args;
  bool InUse = false; ///< Guards against re-entrant runs from hooks.
};

} // namespace

RunResult Vm::run(const RunOptions &Opts, const ExecHooks *Hooks) const {
  RunResult Res;

  // Grab the thread's scratch buffers; if a hook re-entered run() on
  // this thread (the scratch is mid-run), fall back to fresh local
  // buffers for the nested run.
  static thread_local VmScratch Tls;
  VmScratch Local;
  VmScratch &Scr = Tls.InUse ? Local : Tls;
  struct ScratchGuard {
    bool &Flag;
    explicit ScratchGuard(bool &F) : Flag(F) { Flag = true; }
    ~ScratchGuard() { Flag = false; }
  } Guard(Scr.InUse);

  // Program state. The global/stack buffers are sized once per run and
  // never resized afterwards, so the raw data pointers below stay
  // valid. Stale stack contents are fine: every slot is written before
  // it is read.
  Scr.Globals.assign(CP.GlobalSyms.size(), 0);
  for (const auto &[Slot, V] : CP.GlobalInits)
    Scr.Globals[Slot] = V;
  // Array cells are charged against MaxArrayCells before any storage
  // exists: past the budget the global arrays are never allocated.
  uint64_t LiveArrayCells = CP.GlobalArrayCells;
  const bool GlobalArraysFit = LiveArrayCells <= MaxArrayCells;
  Scr.GlobalArr.assign(GlobalArraysFit ? CP.GlobalArraySlots : 0, 0);
  Scr.Stack.resize(CP.MaxStack);
  Scr.Args.clear();
  int64_t *const GV = Scr.Globals.data();
  int64_t *const GA = Scr.GlobalArr.data();
  std::vector<int64_t> &Globals = Scr.Globals;
  std::vector<int64_t> &GlobalArr = Scr.GlobalArr;
  std::vector<int64_t> &Stack = Scr.Stack;
  std::vector<Frame> &Frames = Scr.Frames;
  std::vector<Arg> &Args = Scr.Args;

  const uint64_t MaxSteps = Opts.Limits.MaxSteps;
  const unsigned MaxDepth = Opts.Limits.MaxCallDepth;
  uint64_t Steps = 0;
  uint64_t Reads = 0;
  size_t Depth = 0;
  const bool UseHook = Hooks && Hooks->OnVarUse;
  const bool EntryHook = Hooks && Hooks->OnProcEntry;

  auto capture = [&] {
    Res.Steps = Steps;
    Res.ReadsConsumed = Reads;
    Res.FinalGlobals.assign(CP.NumSymbols, 0);
    for (size_t I = 0; I != CP.GlobalSyms.size(); ++I)
      Res.FinalGlobals[CP.GlobalSyms[I]] = Globals[I];
    if (GlobalArraysFit)
      for (const GlobalArrayInfo &AI : CP.GlobalArrays)
        Res.FinalGlobalArrays.emplace_back(
            AI.Symbol,
            std::vector<int64_t>(GlobalArr.begin() + AI.Offset,
                                 GlobalArr.begin() + AI.Offset +
                                     static_cast<size_t>(AI.Size)));
    std::sort(Res.FinalGlobalArrays.begin(), Res.FinalGlobalArrays.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
  };

  auto pushFrame = [&](const CodeObject &CO) -> Frame & {
    if (Frames.size() <= Depth)
      Frames.emplace_back();
    Frame &F = Frames[Depth];
    ++Depth;
    F.Slots.resize(CO.FrameSlots);
    // Locals and local arrays are zero per activation; the by-value
    // temp slots [0, NumFormals) are either bound or dead.
    std::fill(F.Slots.begin() + CO.NumFormals, F.Slots.end(), 0);
    F.Refs.resize(CO.NumFormals);
    return F;
  };

  auto fireProcEntry = [&](ProcId P, const CodeObject &CO, Frame &F) {
    // Mirrors the interpreter's lookup: global scalars first, then
    // formals of the entered procedure, else null.
    auto Lookup = [&](SymbolId Sym) -> const int64_t * {
      if (Sym < CP.GlobalSlotOfSymbol.size()) {
        int32_t S = CP.GlobalSlotOfSymbol[Sym];
        if (S >= 0)
          return &GV[S];
      }
      for (size_t I = 0; I != CO.FormalSyms.size(); ++I)
        if (CO.FormalSyms[I] == Sym)
          return F.Refs[I];
      return nullptr;
    };
    Hooks->OnProcEntry(P, Lookup);
  };

  // The entry "call": depth- and array-checked like every invoke(),
  // before any frame exists, with an invalid call location.
  const CodeObject *CO = &CP.Procs[CP.Entry];
  RunStatus EntryTrap =
      !GlobalArraysFit         ? RunStatus::MemoryLimit
      : Depth + 1 > MaxDepth   ? RunStatus::CallDepthLimit
      : CO->ArrayCells > MaxArrayCells - LiveArrayCells
          ? RunStatus::MemoryLimit
          : RunStatus::Ok;
  if (EntryTrap != RunStatus::Ok) {
    Res.Status = EntryTrap;
    capture();
    return Res;
  }
  LiveArrayCells += CO->ArrayCells;
  {
    Frame &F = pushFrame(*CO);
    // The entry procedure receives no actuals; any formals it declares
    // bind to fresh zero cells (the interpreter reads them as
    // uninitialized-zero locals).
    for (uint32_t I = 0; I != CO->NumFormals; ++I) {
      F.Slots[I] = 0;
      F.Refs[I] = &F.Slots[I];
    }
    if (EntryHook)
      fireProcEntry(CP.Entry, *CO, F);
  }

  // The dispatch-loop registers, re-cached on every call and return.
  const Inst *Code = CO->Code.data();
  const int64_t *Consts = CO->Consts.data();
  uint32_t Ip = 0;
  int64_t *Sp = Stack.data();
  int64_t *FB = Frames[0].Slots.data();
  int64_t **RF = Frames[0].Refs.data();

  RunStatus Trap = RunStatus::Ok;
  SourceLoc TrapLoc;

#define IPCP_VM_TRAP(K)                                                        \
  do {                                                                         \
    Trap = RunStatus::K;                                                       \
    TrapLoc = CO->Locs[I.B];                                                   \
    goto trapped;                                                              \
  } while (0)

  // Both dispatch strategies share the handler bodies below: VM_CASE
  // opens a handler (binding I to the fetched instruction), VM_NEXT
  // ends it. Under computed goto the handlers are labels and VM_NEXT is
  // the fetch + indirect branch; under the fallback they are switch
  // cases inside an ordinary for(;;) loop. The label table MUST match
  // exec/Bytecode.h's Op declaration order — a static_assert on the
  // table size below catches additions, and any reordering shows up as
  // instant differential-wall failure.
  const Inst *IPtr = nullptr;
#if IPCP_VM_COMPUTED_GOTO
  static const void *const Labels[] = {
      &&L_PushConst,     &&L_LoadGlobal,    &&L_LoadLocal,
      &&L_LoadFormal,    &&L_StoreGlobal,   &&L_StoreLocal,
      &&L_StoreFormal,   &&L_LoadArrGlobal, &&L_LoadArrLocal,
      &&L_AddrArrGlobal, &&L_AddrArrLocal,  &&L_StoreArrGlobal,
      &&L_StoreArrLocal, &&L_Add,           &&L_Sub,
      &&L_Mul,           &&L_Div,           &&L_Mod,
      &&L_CmpEq,         &&L_CmpNe,         &&L_CmpLt,
      &&L_CmpLe,         &&L_CmpGt,         &&L_CmpGe,
      &&L_LogAnd,        &&L_LogOr,         &&L_Neg,
      &&L_LogNot,        &&L_Jump,          &&L_JumpIfZero,
      &&L_Step,          &&L_Print,         &&L_Read,
      &&L_CheckCall,     &&L_ArgValue,      &&L_ArgCellGlobal,
      &&L_ArgCellLocal,  &&L_ArgCellFormal, &&L_Call,
      &&L_Ret,
  };
  static_assert(sizeof(Labels) / sizeof(Labels[0]) ==
                    static_cast<size_t>(Op::Ret) + 1,
                "computed-goto label table out of sync with the Op enum");
#define VM_DISPATCH()                                                          \
  IPtr = Code++;                                                               \
  ++Ip;                                                                        \
  goto *Labels[static_cast<uint8_t>(IPtr->Opcode)]
#define VM_CASE(Name)                                                          \
  L_##Name : {                                                                 \
    const Inst &I = *IPtr;                                                     \
    (void)I;
#define VM_NEXT()                                                              \
  }                                                                            \
  VM_DISPATCH()
  VM_DISPATCH();
#else
#define VM_CASE(Name)                                                          \
  case Op::Name: {                                                             \
    const Inst &I = *IPtr;                                                     \
    (void)I;
#define VM_NEXT()                                                              \
  }                                                                            \
  break
  for (;;) {
    IPtr = Code++;
    ++Ip;
    switch (IPtr->Opcode) {
#endif

      VM_CASE(PushConst)
      *Sp++ = Consts[I.A];
      VM_NEXT();

      VM_CASE(LoadGlobal)
      int64_t V = GV[I.A];
      if (UseHook && I.B)
        Hooks->OnVarUse(I.B, V);
      *Sp++ = V;
      VM_NEXT();

      VM_CASE(LoadLocal)
      int64_t V = FB[I.A];
      if (UseHook && I.B)
        Hooks->OnVarUse(I.B, V);
      *Sp++ = V;
      VM_NEXT();

      VM_CASE(LoadFormal)
      int64_t V = *RF[I.A];
      if (UseHook && I.B)
        Hooks->OnVarUse(I.B, V);
      *Sp++ = V;
      VM_NEXT();

      VM_CASE(StoreGlobal)
      GV[I.A] = *--Sp;
      VM_NEXT();

      VM_CASE(StoreLocal)
      FB[I.A] = *--Sp;
      VM_NEXT();

      VM_CASE(StoreFormal)
      *RF[I.A] = *--Sp;
      VM_NEXT();

      VM_CASE(LoadArrGlobal)
      const GlobalArrayInfo &AI = CP.GlobalArrays[I.A];
      int64_t Idx = Sp[-1];
      if (Idx < 1 ||
          static_cast<uint64_t>(Idx) > static_cast<uint64_t>(AI.Size))
        IPCP_VM_TRAP(ArrayBounds);
      Sp[-1] = GA[AI.Offset + static_cast<size_t>(Idx) - 1];
      VM_NEXT();

      VM_CASE(LoadArrLocal)
      const LocalArrayInfo &AI = CO->LocalArrays[I.A];
      int64_t Idx = Sp[-1];
      if (Idx < 1 ||
          static_cast<uint64_t>(Idx) > static_cast<uint64_t>(AI.Size))
        IPCP_VM_TRAP(ArrayBounds);
      Sp[-1] = FB[AI.Offset + static_cast<size_t>(Idx) - 1];
      VM_NEXT();

      VM_CASE(AddrArrGlobal)
      const GlobalArrayInfo &AI = CP.GlobalArrays[I.A];
      int64_t Idx = Sp[-1];
      if (Idx < 1 ||
          static_cast<uint64_t>(Idx) > static_cast<uint64_t>(AI.Size))
        IPCP_VM_TRAP(ArrayBounds);
      Sp[-1] = static_cast<int64_t>(AI.Offset) + Idx - 1;
      VM_NEXT();

      VM_CASE(AddrArrLocal)
      const LocalArrayInfo &AI = CO->LocalArrays[I.A];
      int64_t Idx = Sp[-1];
      if (Idx < 1 ||
          static_cast<uint64_t>(Idx) > static_cast<uint64_t>(AI.Size))
        IPCP_VM_TRAP(ArrayBounds);
      Sp[-1] = static_cast<int64_t>(AI.Offset) + Idx - 1;
      VM_NEXT();

      VM_CASE(StoreArrGlobal)
      int64_t V = *--Sp;
      GA[static_cast<size_t>(*--Sp)] = V;
      VM_NEXT();

      VM_CASE(StoreArrLocal)
      int64_t V = *--Sp;
      FB[static_cast<size_t>(*--Sp)] = V;
      VM_NEXT();

      VM_CASE(Add)
      Sp[-2] = wrapAdd(Sp[-2], Sp[-1]);
      --Sp;
      VM_NEXT();

      VM_CASE(Sub)
      Sp[-2] = wrapSub(Sp[-2], Sp[-1]);
      --Sp;
      VM_NEXT();

      VM_CASE(Mul)
      Sp[-2] = wrapMul(Sp[-2], Sp[-1]);
      --Sp;
      VM_NEXT();

      VM_CASE(Div)
      int64_t R = *--Sp;
      int64_t L = Sp[-1];
      if (R == 0)
        IPCP_VM_TRAP(DivideByZero);
      Sp[-1] = (L == INT64_MIN && R == -1) ? INT64_MIN : L / R;
      VM_NEXT();

      VM_CASE(Mod)
      int64_t R = *--Sp;
      int64_t L = Sp[-1];
      if (R == 0)
        IPCP_VM_TRAP(DivideByZero);
      Sp[-1] = (L == INT64_MIN && R == -1) ? 0 : L % R;
      VM_NEXT();

      VM_CASE(CmpEq)
      Sp[-2] = Sp[-2] == Sp[-1];
      --Sp;
      VM_NEXT();

      VM_CASE(CmpNe)
      Sp[-2] = Sp[-2] != Sp[-1];
      --Sp;
      VM_NEXT();

      VM_CASE(CmpLt)
      Sp[-2] = Sp[-2] < Sp[-1];
      --Sp;
      VM_NEXT();

      VM_CASE(CmpLe)
      Sp[-2] = Sp[-2] <= Sp[-1];
      --Sp;
      VM_NEXT();

      VM_CASE(CmpGt)
      Sp[-2] = Sp[-2] > Sp[-1];
      --Sp;
      VM_NEXT();

      VM_CASE(CmpGe)
      Sp[-2] = Sp[-2] >= Sp[-1];
      --Sp;
      VM_NEXT();

      VM_CASE(LogAnd)
      Sp[-2] = (Sp[-2] != 0) && (Sp[-1] != 0);
      --Sp;
      VM_NEXT();

      VM_CASE(LogOr)
      Sp[-2] = (Sp[-2] != 0) || (Sp[-1] != 0);
      --Sp;
      VM_NEXT();

      VM_CASE(Neg)
      Sp[-1] = wrapNeg(Sp[-1]);
      VM_NEXT();

      VM_CASE(LogNot)
      Sp[-1] = Sp[-1] == 0 ? 1 : 0;
      VM_NEXT();

      VM_CASE(Jump)
      Code += static_cast<int64_t>(I.A) - static_cast<int64_t>(Ip);
      Ip = I.A;
      VM_NEXT();

      VM_CASE(JumpIfZero)
      if (*--Sp == 0) {
        Code += static_cast<int64_t>(I.A) - static_cast<int64_t>(Ip);
        Ip = I.A;
      }
      VM_NEXT();

      VM_CASE(Step)
      if (Steps >= MaxSteps)
        IPCP_VM_TRAP(StepLimit);
      ++Steps;
      VM_NEXT();

      VM_CASE(Print)
      Res.Prints.push_back(*--Sp);
      VM_NEXT();

      VM_CASE(Read)
      *Sp++ = readStreamValue(Opts.ReadSeed, Reads++);
      VM_NEXT();

      VM_CASE(CheckCall)
      if (Depth + 1 > MaxDepth)
        IPCP_VM_TRAP(CallDepthLimit);
      VM_NEXT();

      VM_CASE(ArgValue)
      Args.push_back({*--Sp, nullptr});
      VM_NEXT();

      VM_CASE(ArgCellGlobal)
      Args.push_back({0, &GV[I.A]});
      VM_NEXT();

      VM_CASE(ArgCellLocal)
      Args.push_back({0, &FB[I.A]});
      VM_NEXT();

      VM_CASE(ArgCellFormal)
      Args.push_back({0, RF[I.A]});
      VM_NEXT();

      VM_CASE(Call)
      const CodeObject &Callee = CP.Procs[I.A];
      assert(Args.size() == Callee.NumFormals && "arity checked by sema");
      if (Callee.ArrayCells > MaxArrayCells - LiveArrayCells)
        IPCP_VM_TRAP(MemoryLimit);
      LiveArrayCells += Callee.ArrayCells;
      Frame &F = pushFrame(Callee);
      F.RetCode = CO;
      F.RetIp = Ip;
      for (uint32_t J = 0; J != Callee.NumFormals; ++J) {
        if (Args[J].Cell) {
          F.Refs[J] = Args[J].Cell;
        } else {
          F.Slots[J] = Args[J].Value;
          F.Refs[J] = &F.Slots[J];
        }
      }
      Args.clear();
      CO = &Callee;
      Code = CO->Code.data();
      Consts = CO->Consts.data();
      Ip = 0;
      FB = F.Slots.data();
      RF = F.Refs.data();
      if (EntryHook)
        fireProcEntry(I.A, Callee, F);
      VM_NEXT();

      VM_CASE(Ret)
      --Depth;
      if (Depth == 0)
        goto done;
      LiveArrayCells -= CO->ArrayCells;
      Frame &F = Frames[Depth]; // The frame being popped.
      CO = F.RetCode;
      Code = CO->Code.data() + F.RetIp;
      Consts = CO->Consts.data();
      Ip = F.RetIp;
      Frame &C = Frames[Depth - 1];
      FB = C.Slots.data();
      RF = C.Refs.data();
      VM_NEXT();

#if !IPCP_VM_COMPUTED_GOTO
    }
  }
#endif

#undef VM_CASE
#undef VM_NEXT
#ifdef VM_DISPATCH
#undef VM_DISPATCH
#endif
#undef IPCP_VM_TRAP

trapped:
  Res.Status = Trap;
  Res.TrapLoc = TrapLoc;
done:
  capture();
  return Res;
}
