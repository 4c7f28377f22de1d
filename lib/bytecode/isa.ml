(** The flat-bytecode instruction set of the compiled SDFG tier.

    A program is a single [instr array] executed by one dispatch loop
    ({!Vm}); all operands are integer indices into a preallocated
    {!frame}. Where the tree walker ({!Dcir_sdfg.Interp}) builds an
    environment per tasklet execution and an index list per memlet
    access, the bytecode tier indexes fixed registers:

    - [vals]  — tasklet connector slots and assignment results;
    - [ints]  — loop induction variables, range bounds, interstate
      assignment staging;
    - [saves] — saved symbol bindings around serial map loops;
    - [bufs]  — per-container (buffer, dims) pairs resolved once per
      frame, eliminating repeated hashtable lookups on the hot path;
    - [lasts] — the most recent value of each tasklet output that a
      direct value edge reads, with [lset] marking the ones set.

    Symbols are ids into the run's {!Dcir_sdfg.Symtab}: the lowering
    interns every name the program and its [ParMap] bodies read or bind
    and records the names in [p_syms], and {!Vm.run} builds the table
    from them, so no instruction hashes a name.

    Interstate control flow is pre-resolved into branch targets: every
    [EdgeCond] carries the pc of the next alternative and every taken
    edge ends in a [Jmp] to the destination state's entry pc, so the
    state machine runs without hashtable lookups or list scans.

    Bit-identity contract: instructions drive the same {!Machine}
    charge helpers in the same order as the tree walker, so outputs,
    traps and every machine metric agree across both tiers. Symbolic
    index expressions and tasklet bodies that do not fit a specialized
    opcode run as {!Closures} — exactness by construction, with the
    specialized forms ([Copy1], [CopyIdx], [Bin], [DivT], [FusedBin])
    reserved for shapes whose charge sequence is statically known. *)

open Dcir_machine
module Interp = Dcir_sdfg.Interp
module Sdfg = Dcir_sdfg.Sdfg
module Texpr = Dcir_sdfg.Texpr

type iexpr = Closures.iexpr
(** compiled symbolic expression; raises [Expr.Unbound_symbol] *)

type crange = Closures.crange  (** (lo, hi, step) *)

type instr =
  (* -- control ----------------------------------------------------- *)
  | Halt
  | Jmp of int
  | Step  (** one budget step: state transition or graph execution *)
  | Reraise of exn
      (** deferred lowering failure of a malformed graph — fires where
          the tree walker raises it *)
  | TrapNow of string  (** precomputed always-trap (non-index subsets, …) *)
  (* -- state machine ----------------------------------------------- *)
  | AllocState of { c : Sdfg.container; shape : iexpr list }
      (** per-state heap allocation charge (mirrors [exec_state]) *)
  | ChargeBranch
  | EdgeCond of {
      cond : Interp.runtime -> bool;
      src : string;
      dst : string;
      if_false : int;  (** pc of the next alternative edge / fallthrough *)
    }
  | EdgeAssigns of { base : int; items : (int * iexpr) array }
      (** evaluate all RHS with pre-assignment values (staged in
          [ints.(base+i)]), then commit *)
  (* -- serial map loops -------------------------------------------- *)
  | EvalRange of { lo : int; hi : int; step : int; r : crange }
  | SaveSym of { slot : int; sym : int }
  | RestoreSym of { slot : int; sym : int }
  | LoopInit of { iv : int; lo : int }
  | LoopHead of { iv : int; hi : int; exit_ : int }
  | LoopIter of { sym : int; iv : int }
      (** per-iteration charge (Int_alu + Branch) and symbol binding *)
  | LoopNext of { iv : int; step : int; head : int }
  (* -- certified parallel maps ------------------------------------- *)
  | ParMap of {
      cert : Sdfg.par_cert;
      params : string list;
      ranges : crange list;
      body : program;
    }
  (* -- memlet copies ------------------------------------------------ *)
  | CopyND of Closures.ccopy  (** general fallback: any-rank copy *)
  | Copy1 of {
      src : string;
      sslot : int;
      dst : string;
      dslot : int;
      wcr : Sdfg.wcr option;
      sr : crange;
      dr : crange;
    }  (** specialized contiguous rank-1 → rank-1 copy *)
  | Copy0 of {
      src : string;
      sslot : int;
      dst : string;
      dslot : int;
      wcr : Sdfg.wcr option;
    }  (** scalar → scalar copy *)
  | CopyIdx of {
      src : string;
      sslot : int;
      dst : string;
      dslot : int;
      wcr : Sdfg.wcr option;
      sr : (iexpr * iexpr) list;
      dr : (iexpr * iexpr) list;
          (** (lo, step) per dimension: an index dimension's hi is the
              same expression as its lo *)
      base : int;
          (** [ints.(base + k)]: the index of source dimension [k], then
              of each destination dimension *)
    }
      (** single-element copy between index subsets of any ranks (other
          than [Copy0]'s and [Copy1]'s) *)
  (* -- tasklets ------------------------------------------------------ *)
  | LoadIdx of { dst : int; data : string; cslot : int; idxs : iexpr array }
      (** fill one connector slot from a single-element subset *)
  | LoadLast of { dst : int; last : int; key : string; tname : string }
      (** fill from a direct tasklet-to-tasklet value edge: [lasts.(last)],
          the output ["nid:conn"] = [key] *)
  | Eval of { dst : int; f : Interp.runtime -> Value.t array -> Value.t }
      (** general tasklet assignment: closure-compiled body over [vals] *)
  | Bin of { dst : int; op : Texpr.binop; a : int; b : int }
  | DivT of { dst : int; a : int; b : int }
      (** explicit trap-carrying division *)
  | RemT of { dst : int; a : int; b : int }
      (** explicit trap-carrying remainder *)
  | SetOut of { last : int; src : int }
  | StoreIdx of {
      src : int;
      data : string;
      cslot : int;
      wcr : Sdfg.wcr option;
      idxs : iexpr array;
    }
  | FusedBin of {
      dst : int;
      op : Texpr.binop;
      a : int;
      b : int;
      last : int;
      data : string;
      cslot : int;
      wcr : Sdfg.wcr option;
      idxs : iexpr array;
    }  (** fused load-op-store tail: [Bin] + [SetOut] + [StoreIdx] *)
  | CallOpaque of {
      tname : string;
      overhead : float;
      modul : Dcir_mlir.Ir.modul;
      entry : string;
      nid : int;
      syms : (int * string) array;  (** symbol arguments, then [args] *)
      args : oarg array;
      keys : string array;
      obase : int;
    }

and oarg = OScalar of int | OArray of string | OUnbound of string

and program = {
  p_sdfg : Sdfg.t;
  p_code : instr array;
  p_nvals : int;
  p_nints : int;
  p_nsaves : int;
  p_ncslots : int;
  p_nlasts : int;
  p_syms : string array;
      (** interned symbol names, name [i] = id [i]; [ParMap] bodies share
          the enclosing program's numbering *)
}

(** Preallocated activation frame: sized once at [Vm.exec] entry, reused
    for the whole run (nested [ParMap] bodies get their own). *)
type frame = {
  vals : Value.t array;
  ints : int array;
  saves : int option array;
  bufs : (Machine.buffer * int array) option array;
  lasts : Value.t array;
  lset : bool array;
}

let make_frame (p : program) : frame =
  {
    vals = Array.make (max 1 p.p_nvals) (Value.VInt 0);
    ints = Array.make (max 1 p.p_nints) 0;
    saves = Array.make (max 1 p.p_nsaves) None;
    bufs = Array.make (max 1 p.p_ncslots) None;
    lasts = Array.make (max 1 p.p_nlasts) (Value.VInt 0);
    lset = Array.make (max 1 p.p_nlasts) false;
  }

let opcode_name : instr -> string = function
  | Halt -> "halt"
  | Jmp _ -> "jmp"
  | Step -> "step"
  | Reraise _ -> "reraise"
  | TrapNow _ -> "trap"
  | AllocState _ -> "state.alloc"
  | ChargeBranch -> "charge.branch"
  | EdgeCond _ -> "edge.cond"
  | EdgeAssigns _ -> "edge.assign"
  | EvalRange _ -> "range"
  | SaveSym _ -> "sym.save"
  | RestoreSym _ -> "sym.restore"
  | LoopInit _ -> "loop.init"
  | LoopHead _ -> "loop.head"
  | LoopIter _ -> "loop.iter"
  | LoopNext _ -> "loop.next"
  | ParMap _ -> "par.map"
  | CopyND _ -> "copy.nd"
  | Copy1 _ -> "copy.1d"
  | Copy0 _ -> "copy.0d"
  | CopyIdx _ -> "copy.idx"
  | LoadIdx _ -> "load.idx"
  | LoadLast _ -> "load.last"
  | Eval _ -> "eval"
  | Bin _ -> "bin"
  | DivT _ -> "div.t"
  | RemT _ -> "rem.t"
  | SetOut _ -> "set.out"
  | StoreIdx _ -> "store.idx"
  | FusedBin _ -> "fused.bin"
  | CallOpaque _ -> "call.opaque"

(** Static instruction count including nested [ParMap] bodies. *)
let rec size (p : program) : int =
  Array.fold_left
    (fun acc i ->
      acc + match i with ParMap { body; _ } -> 1 + size body | _ -> 1)
    0 p.p_code
