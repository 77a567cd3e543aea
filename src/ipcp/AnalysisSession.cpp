//===- ipcp/AnalysisSession.cpp - Incremental per-program caches ----------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/AnalysisSession.h"

#include "ipcp/AnalysisConfig.h"
#include "ir/CfgBuilder.h"

#include <cassert>

using namespace ipcp;

AnalysisSession::AnalysisSession(const AstContext &Ctx,
                                 const SymbolTable &Symbols)
    : Ctx(Ctx), Symbols(Symbols), NumProcs(Ctx.program().Procs.size()),
      SsaSlots(std::make_unique<SsaSlot[]>(NumProcs * 2)) {}

AnalysisSession::~AnalysisSession() = default;

const Module &AnalysisSession::moduleLocked() {
  if (AllLowered)
    return Mod;
  const Program &Prog = Ctx.program();
  if (Mod.Functions.empty())
    Mod.Functions.resize(NumProcs);
  for (ProcId P = 0, E = static_cast<ProcId>(NumProcs); P != E; ++P) {
    if (Mod.Functions[P])
      continue;
    Mod.Functions[P] = buildFunction(Prog, Symbols, P);
    C.ProcsLowered.fetch_add(1, std::memory_order_relaxed);
    if (AdoptedLowering)
      C.ProcsRelowered.fetch_add(1, std::memory_order_relaxed);
  }
  AllLowered = true;
  return Mod;
}

const Module &AnalysisSession::module() {
  std::lock_guard<std::mutex> Lock(CoreMutex);
  return moduleLocked();
}

const CallGraph &AnalysisSession::callGraph() {
  std::lock_guard<std::mutex> Lock(CoreMutex);
  if (!CG) {
    auto Entry = Ctx.program().entryProc();
    assert(Entry && "session requires a checked program with an entry");
    CG.emplace(moduleLocked(), *Entry);
  }
  return *CG;
}

const ModRefInfo *AnalysisSession::modRefLocked(bool UseMod) {
  if (!UseMod)
    return nullptr;
  if (!MriBuilt) {
    const Module &M = moduleLocked();
    if (!CG) {
      auto Entry = Ctx.program().entryProc();
      assert(Entry && "session requires a checked program with an entry");
      CG.emplace(M, *Entry);
    }
    Mri.emplace(M, Symbols, *CG);
    MriBuilt = true;
  }
  return &*Mri;
}

const ModRefInfo *AnalysisSession::modRef(bool UseMod) {
  std::lock_guard<std::mutex> Lock(CoreMutex);
  return modRefLocked(UseMod);
}

const RefAliasInfo &AnalysisSession::refAlias(bool UseMod) {
  std::lock_guard<std::mutex> Lock(CoreMutex);
  auto &Slot = Aliases[UseMod];
  if (!Slot)
    Slot.emplace(moduleLocked(), Symbols, modRefLocked(UseMod));
  return *Slot;
}

const FlowAliasInfo &AnalysisSession::flowAlias(bool UseMod) {
  std::lock_guard<std::mutex> Lock(CoreMutex);
  auto &Slot = FlowAliases[UseMod];
  if (!Slot) {
    auto &Base = Aliases[UseMod];
    if (!Base)
      Base.emplace(moduleLocked(), Symbols, modRefLocked(UseMod));
    Slot.emplace(moduleLocked(), Symbols, modRefLocked(UseMod), *Base);
  }
  return *Slot;
}

const CopyPropInfo &AnalysisSession::copyProp(bool UseMod) {
  std::lock_guard<std::mutex> Lock(CoreMutex);
  auto &Slot = CopyProps[UseMod];
  if (!Slot) {
    auto &Base = Aliases[UseMod];
    if (!Base)
      Base.emplace(moduleLocked(), Symbols, modRefLocked(UseMod));
    Slot.emplace(moduleLocked(), Symbols, modRefLocked(UseMod), *Base);
  }
  return *Slot;
}

const SsaForm::KillOracle &AnalysisSession::killOracleLocked(bool UseMod) {
  auto &Slot = Oracles[UseMod];
  if (!Slot)
    Slot.emplace(makeKillOracle(Symbols, modRefLocked(UseMod)));
  return *Slot;
}

const SsaForm::KillOracle &AnalysisSession::killOracle(bool UseMod) {
  std::lock_guard<std::mutex> Lock(CoreMutex);
  return killOracleLocked(UseMod);
}

const AnalysisSession::SsaBundle &AnalysisSession::ssa(ProcId P,
                                                       bool UseMod) {
  assert(P < NumProcs && "procedure id out of range");
  // Materialize the shared inputs before taking the slot lock, so slot
  // builds of distinct procedures never serialize on CoreMutex.
  const Function *F;
  const SsaForm::KillOracle *Kills;
  {
    std::lock_guard<std::mutex> Lock(CoreMutex);
    F = &moduleLocked().function(P);
    Kills = &killOracleLocked(UseMod);
  }
  SsaSlot &Slot = SsaSlots[P * 2 + (UseMod ? 1 : 0)];
  std::lock_guard<std::mutex> Lock(Slot.M);
  if (!Slot.B) {
    Slot.B = std::make_unique<SsaBundle>(*F, Symbols, *Kills);
    C.SsaBuilt.fetch_add(1, std::memory_order_relaxed);
  } else {
    C.SsaReused.fetch_add(1, std::memory_order_relaxed);
  }
  return *Slot.B;
}

const AnalysisSession::JfBase &
AnalysisSession::jfBase(const JumpFunctionOptions &Opts,
                        const std::function<void(JfBase &)> &Build) {
  JfSlot *Slot;
  {
    std::lock_guard<std::mutex> Lock(JfMutex);
    Slot = &JfSlots[jumpFunctionFlagBits(Opts)];
  }
  std::lock_guard<std::mutex> Lock(Slot->M);
  if (!Slot->B) {
    Slot->B = std::make_unique<JfBase>();
    Build(*Slot->B);
    C.JfBasesBuilt.fetch_add(1, std::memory_order_relaxed);
  } else {
    C.JfBasesReused.fetch_add(1, std::memory_order_relaxed);
  }
  return *Slot->B;
}

void AnalysisSession::adoptLowering(AnalysisSession &From,
                                    const std::vector<ProcId> &Dirty) {
  assert(&From != this && From.NumProcs == NumProcs &&
         "adopting from a different program");
  const Module &Src = From.module();
  std::vector<uint8_t> IsDirty(NumProcs, 0);
  for (ProcId P : Dirty)
    IsDirty[P] = 1;
  std::lock_guard<std::mutex> Lock(CoreMutex);
  assert(Mod.Functions.empty() && "adopting into a used session");
  Mod.Functions.resize(NumProcs);
  for (ProcId P = 0, E = static_cast<ProcId>(NumProcs); P != E; ++P)
    if (!IsDirty[P])
      Mod.Functions[P] = Src.function(P).clone();
  AdoptedLowering = true;
}

SessionStats AnalysisSession::stats() const {
  SessionStats S;
  S.ProcsLowered = C.ProcsLowered.load(std::memory_order_relaxed);
  S.ProcsRelowered = C.ProcsRelowered.load(std::memory_order_relaxed);
  S.SsaBuilt = C.SsaBuilt.load(std::memory_order_relaxed);
  S.SsaReused = C.SsaReused.load(std::memory_order_relaxed);
  S.VnBuilt = C.VnBuilt.load(std::memory_order_relaxed);
  S.VnReused = C.VnReused.load(std::memory_order_relaxed);
  S.JfBasesBuilt = C.JfBasesBuilt.load(std::memory_order_relaxed);
  S.JfBasesReused = C.JfBasesReused.load(std::memory_order_relaxed);
  S.SolverMemoHits = VcMemo.hits();
  S.SolverMemoMisses = VcMemo.misses();
  S.SubstMemoHits = SubstMemo.hits();
  S.SubstMemoMisses = SubstMemo.misses();
  return S;
}
