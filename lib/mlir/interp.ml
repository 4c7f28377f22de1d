(** MLIR interpreter over the simulated machine.

    Executes the core dialects ([func], [scf], [arith], [math], [memref])
    against {!Dcir_machine.Machine}, charging the cost model for every
    operation and memory access. This is how "compiled binaries" run in this
    reproduction: each compiler proxy optimizes the IR with its own pass set
    and then executes here, so cycle counts reflect exactly the work its IR
    still performs.

    Semantics notes:
    - [arith.divsi]/[remsi] truncate toward zero (C semantics, matching what
      Polygeist emits for C division);
    - integer widths are not modeled (OCaml [int] everywhere) — the C subset
      used by the benchmarks never relies on wraparound. *)

open Dcir_machine

type bufinfo = { buf : Machine.buffer; dims : int array }
type rtval = Scalar of Value.t | Buf of bufinfo

exception Trap of string

let trap fmt = Fmt.kstr (fun s -> raise (Trap s)) fmt

(** Control outcome of one compiled op (see the compiled layer below). *)
type kctrl =
  | KContinue
  | KReturn of Value.t list  (** [func.return] reached *)
  | KYield of rtval list  (** [scf.yield] reached *)

type cfunc = {
  cf_func : Ir.func;
  cf_body : (unit -> kctrl) array;
  cf_rslots : int array;  (** parameter slots, bound at call entry *)
}

type env = {
  machine : Machine.t;
  budget : Dcir_resilience.Budget.t;
      (** the machine's budget, cached; charged one step per executed op
          in both tree and compiled modes so the two trap identically *)
  modul : Ir.modul;
  bindings : (int, rtval) Hashtbl.t;  (** tree mode: vid -> runtime value *)
  mutable slots : rtval array;
      (** compiled mode: slot -> runtime value. Grows when a function
          compiles lazily, so closures read the field afresh and never
          hold the array across a call. *)
  slot_of : (int, int) Hashtbl.t;
      (** compiled mode: vid -> slot, assigned when an op compiles; one
          slot per vid for the whole env, as [bindings] has one entry *)
  mutable call_depth : int;
  profile : Dcir_obs.Obs.Profile.t option;
      (** tree mode: when set, per-function inclusive cycles/loads/stores *)
  cfuncs : (string, cfunc) Hashtbl.t;
      (** compiled-mode cache: function name -> compiled body *)
}

let bind (env : env) (v : Ir.value) (rv : rtval) : unit =
  Hashtbl.replace env.bindings v.vid rv

let lookup (env : env) (v : Ir.value) : rtval =
  match Hashtbl.find_opt env.bindings v.vid with
  | Some rv -> rv
  | None -> trap "unbound SSA value %s" (Printer.value_name v)

let scalar (env : env) (v : Ir.value) : Value.t =
  match lookup env v with
  | Scalar s -> s
  | Buf _ -> trap "expected scalar, got memref (%s)" (Printer.value_name v)

let int_of (env : env) (v : Ir.value) : int = Value.as_int (scalar env v)
let float_of (env : env) (v : Ir.value) : float = Value.as_float (scalar env v)

let buffer (env : env) (v : Ir.value) : bufinfo =
  match lookup env v with
  | Buf b -> b
  | Scalar _ -> trap "expected memref, got scalar (%s)" (Printer.value_name v)

(* Row-major linearization; charges (ndims-1) fused index ops, matching what
   compiled addressing would execute. *)
let linearize (env : env) (b : bufinfo) (indices : int list) : int =
  let n = Array.length b.dims in
  if List.length indices <> n then
    trap "index count %d does not match rank %d" (List.length indices) n;
  let lin = ref 0 in
  List.iteri
    (fun k idx ->
      if k > 0 then Machine.charge_op env.machine Int_alu;
      lin := (!lin * b.dims.(k)) + idx)
    indices;
  !lin

let zero_of (ty : Types.t) : Value.t =
  if Types.is_float ty then Value.VFloat 0.0 else Value.VInt 0

(* ------------------------------------------------------------------ *)
(* arith evaluation *)

let eval_cmpi (pred : string) (x : int) (y : int) : bool =
  match pred with
  | "eq" -> x = y
  | "ne" -> x <> y
  | "slt" | "ult" -> x < y
  | "sle" | "ule" -> x <= y
  | "sgt" | "ugt" -> x > y
  | "sge" | "uge" -> x >= y
  | p -> trap "unknown cmpi predicate %s" p

let eval_cmpf (pred : string) (x : float) (y : float) : bool =
  match pred with
  | "oeq" | "ueq" -> x = y
  | "one" | "une" -> x <> y
  | "olt" | "ult" -> x < y
  | "ole" | "ule" -> x <= y
  | "ogt" | "ugt" -> x > y
  | "oge" | "uge" -> x >= y
  | p -> trap "unknown cmpf predicate %s" p

(* ------------------------------------------------------------------ *)

let rec exec_ops (env : env) (ops : Ir.op list) : Value.t list option =
  (* Returns [Some vals] when a terminator produced function results. *)
  match ops with
  | [] -> None
  | o :: rest -> (
      Dcir_resilience.Budget.step env.budget;
      match exec_op env o with
      | `Return vals -> Some vals
      | `Continue -> exec_ops env rest)

and exec_op (env : env) (o : Ir.op) : [ `Return of Value.t list | `Continue ]
    =
  let m = env.machine in
  let charge_class () =
    match Arith.cost_class o.name with
    | Some c -> Machine.charge_op m c
    | None -> (
        match Math_d.cost_class o.name with
        | Some c -> Machine.charge_op m c
        | None -> ())
  in
  match o.name with
  | "func.return" -> `Return (List.map (scalar_or_unit env) o.operands)
  | "arith.constant" ->
      (match Ir.attr o "value" with
      | Some (Attr.AInt n) -> bind env (Ir.result o) (Scalar (VInt n))
      | Some (Attr.AFloat f) -> bind env (Ir.result o) (Scalar (VFloat f))
      | _ -> trap "arith.constant without value attr");
      `Continue
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi"
  | "arith.andi" | "arith.ori" | "arith.xori" | "arith.maxsi" | "arith.minsi"
    ->
      charge_class ();
      let x = int_of env (List.nth o.operands 0)
      and y = int_of env (List.nth o.operands 1) in
      let r =
        match o.name with
        | "arith.addi" -> x + y
        | "arith.subi" -> x - y
        | "arith.muli" -> x * y
        | "arith.divsi" ->
            if y = 0 then trap "integer division by zero" else x / y
        | "arith.remsi" ->
            if y = 0 then trap "integer remainder by zero" else x mod y
        | "arith.andi" -> x land y
        | "arith.ori" -> x lor y
        | "arith.xori" -> x lxor y
        | "arith.maxsi" -> max x y
        | _ -> min x y
      in
      bind env (Ir.result o) (Scalar (VInt r));
      `Continue
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.maxf"
  | "arith.minf" ->
      charge_class ();
      let x = float_of env (List.nth o.operands 0)
      and y = float_of env (List.nth o.operands 1) in
      let r =
        match o.name with
        | "arith.addf" -> x +. y
        | "arith.subf" -> x -. y
        | "arith.mulf" -> x *. y
        | "arith.divf" -> x /. y
        | "arith.maxf" -> Float.max x y
        | _ -> Float.min x y
      in
      bind env (Ir.result o) (Scalar (VFloat r));
      `Continue
  | "arith.negf" ->
      charge_class ();
      bind env (Ir.result o)
        (Scalar (VFloat (-.float_of env (List.hd o.operands))));
      `Continue
  | "arith.cmpi" ->
      charge_class ();
      let pred = Option.value ~default:"eq" (Ir.str_attr o "predicate") in
      let x = int_of env (List.nth o.operands 0)
      and y = int_of env (List.nth o.operands 1) in
      bind env (Ir.result o) (Scalar (Value.of_bool (eval_cmpi pred x y)));
      `Continue
  | "arith.cmpf" ->
      charge_class ();
      let pred = Option.value ~default:"oeq" (Ir.str_attr o "predicate") in
      let x = float_of env (List.nth o.operands 0)
      and y = float_of env (List.nth o.operands 1) in
      bind env (Ir.result o) (Scalar (Value.of_bool (eval_cmpf pred x y)));
      `Continue
  | "arith.select" ->
      charge_class ();
      let c = int_of env (List.nth o.operands 0) in
      let v = lookup env (List.nth o.operands (if c <> 0 then 1 else 2)) in
      bind env (Ir.result o) v;
      `Continue
  | "arith.index_cast" ->
      charge_class ();
      bind env (Ir.result o) (lookup env (List.hd o.operands));
      `Continue
  | "arith.sitofp" ->
      charge_class ();
      bind env (Ir.result o)
        (Scalar (VFloat (float_of_int (int_of env (List.hd o.operands)))));
      `Continue
  | "arith.fptosi" ->
      charge_class ();
      let f = float_of env (List.hd o.operands) in
      let n =
        (* Truncation toward zero; NaN/out-of-range traps (matching the
           SDFG interpreter's ToInt). *)
        try Value.int_of_float_trunc f
        with Invalid_argument msg -> trap "%s" msg
      in
      bind env (Ir.result o) (Scalar (VInt n));
      `Continue
  | "arith.extf" | "arith.truncf" ->
      charge_class ();
      bind env (Ir.result o) (lookup env (List.hd o.operands));
      `Continue
  | name when Math_d.is_math_op name ->
      charge_class ();
      let args = List.map (float_of env) o.operands in
      bind env (Ir.result o) (Scalar (VFloat (Math_d.eval name args)));
      `Continue
  | "memref.alloc" | "memref.alloca" ->
      let res = Ir.result o in
      let elem = Types.elem_type res.vty in
      let dyn = ref (List.map (int_of env) o.operands) in
      let dims =
        List.map
          (function
            | Types.Static n -> n
            | Types.Dynamic -> (
                match !dyn with
                | d :: rest ->
                    dyn := rest;
                    d
                | [] -> trap "memref.alloc: missing dynamic size")
            | Types.SymDim _ -> trap "memref.alloc: symbolic dim at runtime")
          (Types.dims res.vty)
      in
      let elems = List.fold_left ( * ) 1 dims in
      let storage =
        if String.equal o.name "memref.alloc" then Machine.Heap
        else Machine.Stack
      in
      let buf =
        Machine.alloc m ~storage ~elems ~elem_bytes:(Types.byte_width elem)
          ~zero_init:(zero_of elem)
      in
      bind env res (Buf { buf; dims = Array.of_list dims });
      `Continue
  | "memref.dealloc" ->
      let b = buffer env (List.hd o.operands) in
      Machine.free m b.buf;
      `Continue
  | "memref.load" ->
      let mr, idxs = Memref_d.load_parts o in
      let b = buffer env mr in
      let lin = linearize env b (List.map (int_of env) idxs) in
      bind env (Ir.result o) (Scalar (Machine.load m b.buf lin));
      `Continue
  | "memref.store" ->
      let v, mr, idxs = Memref_d.store_parts o in
      let b = buffer env mr in
      let lin = linearize env b (List.map (int_of env) idxs) in
      Machine.store m b.buf lin (scalar env v);
      `Continue
  | "memref.dim" ->
      let b = buffer env (List.hd o.operands) in
      let k = Option.value ~default:0 (Ir.int_attr o "index") in
      if k < 0 || k >= Array.length b.dims then trap "memref.dim out of range";
      bind env (Ir.result o) (Scalar (VInt b.dims.(k)));
      `Continue
  | "scf.for" ->
      let lb, ub, step = Scf_d.loop_bounds o in
      let lbv = int_of env lb
      and ubv = int_of env ub
      and stepv = int_of env step in
      if stepv <= 0 then trap "scf.for: non-positive step %d" stepv;
      let body = Scf_d.loop_body o in
      let iv, carried_args =
        match body.rargs with
        | iv :: rest -> (iv, rest)
        | [] -> trap "scf.for: missing induction variable"
      in
      let carried = ref (List.map (lookup env) (Scf_d.loop_iter_inits o)) in
      let i = ref lbv in
      while !i < ubv do
        (* Loop control: induction increment + compare&branch. *)
        Machine.charge_op m Int_alu;
        Machine.charge_op m Branch;
        bind env iv (Scalar (VInt !i));
        List.iter2 (fun arg v -> bind env arg v) carried_args !carried;
        (match exec_region_with_yield env body.rops with
        | Some vals -> carried := vals
        | None -> if carried_args <> [] then trap "scf.for: missing yield");
        i := !i + stepv
      done;
      List.iter2 (fun res v -> bind env res v) o.results !carried;
      `Continue
  | "scf.if" ->
      Machine.charge_op m Branch;
      let c = int_of env (List.hd o.operands) in
      let then_r, else_r = Scf_d.if_regions o in
      let chosen = if c <> 0 then then_r else else_r in
      (match exec_region_with_yield env chosen.rops with
      | Some vals -> List.iter2 (fun res v -> bind env res v) o.results vals
      | None ->
          if o.results <> [] then trap "scf.if: branch yielded no values");
      `Continue
  | "scf.yield" -> trap "scf.yield outside structured execution"
  | "func.call" -> (
      let callee = Option.value ~default:"" (Func_d.callee o) in
      match Ir.find_func env.modul callee with
      | None -> trap "call to unknown function @%s" callee
      | Some f ->
          (* Call overhead: frame setup + argument moves. *)
          Machine.charge m 20.0;
          List.iter (fun _ -> Machine.charge_op m Move) o.operands;
          let args = List.map (lookup env) o.operands in
          let results = call_func env f args in
          List.iter2 (fun res v -> bind env res (Scalar v)) o.results results;
          `Continue)
  | name -> trap "interpreter: unsupported operation %s" name

(* Execute ops until an scf.yield; return its operand values. *)
and exec_region_with_yield (env : env) (ops : Ir.op list) :
    rtval list option =
  let rec go = function
    | [] -> None
    | o :: rest ->
        Dcir_resilience.Budget.step env.budget;
        if String.equal o.Ir.name "scf.yield" then
          Some (List.map (lookup env) o.operands)
        else (
          (match exec_op env o with
          | `Return _ -> trap "func.return inside structured control flow"
          | `Continue -> ());
          go rest)
  in
  go ops

and scalar_or_unit (env : env) (v : Ir.value) : Value.t =
  match lookup env v with
  | Scalar s -> s
  | Buf _ -> trap "returning a memref from a function is not supported"

and call_func (env : env) (f : Ir.func) (args : rtval list) : Value.t list =
  if env.call_depth > 256 then trap "call depth exceeded";
  match f.fbody with
  | None -> trap "call to external function @%s" f.fname
  | Some r ->
      if List.length r.rargs <> List.length args then
        trap "@%s: argument count mismatch" f.fname;
      env.call_depth <- env.call_depth + 1;
      List.iter2 (fun p a -> bind env p a) r.rargs args;
      let snap =
        match env.profile with
        | None -> None
        | Some _ ->
            let mt = Machine.metrics env.machine in
            Some (mt.cycles, mt.loads, mt.stores)
      in
      let result = exec_ops env r.rops in
      (match (env.profile, snap) with
      | Some p, Some (c0, l0, s0) ->
          let mt = Machine.metrics env.machine in
          Dcir_obs.Obs.Profile.record p ~kind:"func" ~name:f.fname
            ~cycles:(mt.cycles -. c0) ~loads:(mt.loads - l0)
            ~stores:(mt.stores - s0)
      | _ -> ());
      env.call_depth <- env.call_depth - 1;
      (match result with Some vals -> vals | None -> [])

(* ------------------------------------------------------------------ *)
(* Compiled execution: each function body is translated once per [env]
   into an array of OCaml closures (operands, attributes, cost classes and
   nested regions all pre-resolved), then replayed. The charge/memory
   sequence is kept exactly identical to the tree-walking [exec_op] above,
   so machine metrics are bit-for-bit the same in both modes. *)

type mode = Tree | Compiled

(* The never-set slot: physically distinct from every value a program
   binds, so reading it raises the tree walker's unbound-value trap. *)
let unset : rtval = Scalar (Value.VInt (Sys.opaque_identity 0))

let new_env ?profile (machine : Machine.t) (m : Ir.modul) : env =
  {
    machine;
    budget = Machine.budget machine;
    modul = m;
    bindings = Hashtbl.create 256;
    slots = Array.make 64 unset;
    slot_of = Hashtbl.create 64;
    call_depth = 0;
    profile;
    cfuncs = Hashtbl.create 8;
  }

(* The slot of [v], assigned on first sight at compile time. *)
let slot (env : env) (v : Ir.value) : int =
  match Hashtbl.find_opt env.slot_of v.vid with
  | Some k -> k
  | None ->
      let k = Hashtbl.length env.slot_of in
      Hashtbl.add env.slot_of v.vid k;
      let n = Array.length env.slots in
      if k >= n then begin
        let a = Array.make (2 * n) unset in
        Array.blit env.slots 0 a 0 n;
        env.slots <- a
      end;
      k

(* Slot twins of [lookup]/[scalar]/[int_of]/[float_of]/[buffer]/[bind]:
   same traps, same messages. *)
let sget (env : env) (k : int) (v : Ir.value) : rtval =
  let rv = env.slots.(k) in
  if rv == unset then trap "unbound SSA value %s" (Printer.value_name v)
  else rv

let sset (env : env) (k : int) (rv : rtval) : unit = env.slots.(k) <- rv

let sscalar (env : env) (k : int) (v : Ir.value) : Value.t =
  match sget env k v with
  | Scalar s -> s
  | Buf _ -> trap "expected scalar, got memref (%s)" (Printer.value_name v)

let sint (env : env) (k : int) (v : Ir.value) : int =
  Value.as_int (sscalar env k v)

let sfloat (env : env) (k : int) (v : Ir.value) : float =
  Value.as_float (sscalar env k v)

let sbuffer (env : env) (k : int) (v : Ir.value) : bufinfo =
  match sget env k v with
  | Buf b -> b
  | Scalar _ -> trap "expected memref, got scalar (%s)" (Printer.value_name v)

(* A value paired with its slot, resolved at compile time. *)
type sv = { k : int; v : Ir.value }

let sv (env : env) (v : Ir.value) : sv = { k = slot env v; v }

(* Compiled [linearize b (List.map (int_of env) idxs)]: every index is
   read, left to right, before [linearize]'s rank check and charges.
   Ranks 1-3 compute the offset without building the index list. *)
let compile_linear (env : env) (idxs : Ir.value list) : bufinfo -> int =
  let m = env.machine in
  let check (b : bufinfo) (n : int) : unit =
    if Array.length b.dims <> n then
      trap "index count %d does not match rank %d" n (Array.length b.dims)
  in
  match List.map (sv env) idxs with
  | [ x ] ->
      fun b ->
        let i = sint env x.k x.v in
        check b 1;
        i
  | [ x; y ] ->
      fun b ->
        let i = sint env x.k x.v in
        let j = sint env y.k y.v in
        check b 2;
        Machine.charge_op m Int_alu;
        (i * b.dims.(1)) + j
  | [ x; y; z ] ->
      fun b ->
        let i = sint env x.k x.v in
        let j = sint env y.k y.v in
        let k = sint env z.k z.v in
        check b 3;
        Machine.charge_op m Int_alu;
        Machine.charge_op m Int_alu;
        (((i * b.dims.(1)) + j) * b.dims.(2)) + k
  | svs -> fun b -> linearize env b (List.map (fun a -> sint env a.k a.v) svs)

(* Run a compiled op sequence until a terminator produces control.
   Charges one budget step per executed closure — the compiled-mode twin
   of the per-op charge in [exec_ops]/[exec_region_with_yield]. *)
let run_seq (env : env) (ops : (unit -> kctrl) array) : kctrl =
  let n = Array.length ops in
  let budget = env.budget in
  let rec go i =
    if i = n then KContinue
    else begin
      Dcir_resilience.Budget.step budget;
      match ops.(i) () with KContinue -> go (i + 1) | c -> c
    end
  in
  go 0

let rec compile_op (env : env) ~(structured : bool) (o : Ir.op) :
    unit -> kctrl =
  let m = env.machine in
  let charge_class =
    match Arith.cost_class o.name with
    | Some c -> fun () -> Machine.charge_op m c
    | None -> (
        match Math_d.cost_class o.name with
        | Some c -> fun () -> Machine.charge_op m c
        | None -> fun () -> ())
  in
  (* Slots resolve in operand order, then result order, before the
     closure exists; the closure only indexes [env.slots]. *)
  let ops = List.map (sv env) o.operands in
  let opnd i = List.nth ops i in
  let res () = sv env (Ir.result o) in
  match o.name with
  | "func.return" ->
      if structured then fun () ->
        trap "func.return inside structured control flow"
      else
        fun () ->
          KReturn
            (List.map
               (fun a ->
                 match sget env a.k a.v with
                 | Scalar s -> s
                 | Buf _ ->
                     trap "returning a memref from a function is not supported")
               ops)
  | "scf.yield" ->
      if structured then fun () ->
        KYield (List.map (fun a -> sget env a.k a.v) ops)
      else fun () -> trap "scf.yield outside structured execution"
  | "arith.constant" -> (
      let r = res () in
      match Ir.attr o "value" with
      | Some (Attr.AInt n) ->
          let v = Scalar (VInt n) in
          fun () ->
            sset env r.k v;
            KContinue
      | Some (Attr.AFloat f) ->
          let v = Scalar (VFloat f) in
          fun () ->
            sset env r.k v;
            KContinue
      | _ -> fun () -> trap "arith.constant without value attr")
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi"
  | "arith.andi" | "arith.ori" | "arith.xori" | "arith.maxsi" | "arith.minsi"
    ->
      let x = opnd 0 and y = opnd 1 in
      let r = res () in
      let f : int -> int -> int =
        match o.name with
        | "arith.addi" -> ( + )
        | "arith.subi" -> ( - )
        | "arith.muli" -> ( * )
        | "arith.divsi" ->
            fun x y ->
              if y = 0 then trap "integer division by zero" else x / y
        | "arith.remsi" ->
            fun x y ->
              if y = 0 then trap "integer remainder by zero" else x mod y
        | "arith.andi" -> ( land )
        | "arith.ori" -> ( lor )
        | "arith.xori" -> ( lxor )
        | "arith.maxsi" -> max
        | _ -> min
      in
      fun () ->
        charge_class ();
        let a = sint env x.k x.v in
        let b = sint env y.k y.v in
        sset env r.k (Scalar (VInt (f a b)));
        KContinue
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.maxf"
  | "arith.minf" ->
      let x = opnd 0 and y = opnd 1 in
      let r = res () in
      let f : float -> float -> float =
        match o.name with
        | "arith.addf" -> ( +. )
        | "arith.subf" -> ( -. )
        | "arith.mulf" -> ( *. )
        | "arith.divf" -> ( /. )
        | "arith.maxf" -> Float.max
        | _ -> Float.min
      in
      fun () ->
        charge_class ();
        let a = sfloat env x.k x.v in
        let b = sfloat env y.k y.v in
        sset env r.k (Scalar (VFloat (f a b)));
        KContinue
  | "arith.negf" ->
      let x = opnd 0 in
      let r = res () in
      fun () ->
        charge_class ();
        sset env r.k (Scalar (VFloat (-.sfloat env x.k x.v)));
        KContinue
  | "arith.cmpi" ->
      let pred = Option.value ~default:"eq" (Ir.str_attr o "predicate") in
      let x = opnd 0 and y = opnd 1 in
      let r = res () in
      fun () ->
        charge_class ();
        let a = sint env x.k x.v in
        let b = sint env y.k y.v in
        sset env r.k (Scalar (Value.of_bool (eval_cmpi pred a b)));
        KContinue
  | "arith.cmpf" ->
      let pred = Option.value ~default:"oeq" (Ir.str_attr o "predicate") in
      let x = opnd 0 and y = opnd 1 in
      let r = res () in
      fun () ->
        charge_class ();
        let a = sfloat env x.k x.v in
        let b = sfloat env y.k y.v in
        sset env r.k (Scalar (Value.of_bool (eval_cmpf pred a b)));
        KContinue
  | "arith.select" ->
      let c = opnd 0 and t = opnd 1 and f = opnd 2 in
      let r = res () in
      fun () ->
        charge_class ();
        let cv = sint env c.k c.v in
        let chosen = if cv <> 0 then t else f in
        sset env r.k (sget env chosen.k chosen.v);
        KContinue
  | "arith.index_cast" | "arith.extf" | "arith.truncf" ->
      let x = opnd 0 in
      let r = res () in
      fun () ->
        charge_class ();
        sset env r.k (sget env x.k x.v);
        KContinue
  | "arith.sitofp" ->
      let x = opnd 0 in
      let r = res () in
      fun () ->
        charge_class ();
        sset env r.k (Scalar (VFloat (float_of_int (sint env x.k x.v))));
        KContinue
  | "arith.fptosi" ->
      let x = opnd 0 in
      let r = res () in
      fun () ->
        charge_class ();
        let f = sfloat env x.k x.v in
        let n =
          try Value.int_of_float_trunc f
          with Invalid_argument msg -> trap "%s" msg
        in
        sset env r.k (Scalar (VInt n));
        KContinue
  | name when Math_d.is_math_op name ->
      let r = res () in
      fun () ->
        charge_class ();
        let args = List.map (fun a -> sfloat env a.k a.v) ops in
        sset env r.k (Scalar (VFloat (Math_d.eval name args)));
        KContinue
  | "memref.alloc" | "memref.alloca" ->
      let r = res () in
      let elem = Types.elem_type r.v.vty in
      let dim_tmpl = Types.dims r.v.vty in
      let storage =
        if String.equal o.name "memref.alloc" then Machine.Heap
        else Machine.Stack
      in
      let elem_bytes = Types.byte_width elem in
      let zero = zero_of elem in
      fun () ->
        let dyn = ref (List.map (fun a -> sint env a.k a.v) ops) in
        let dims =
          List.map
            (function
              | Types.Static n -> n
              | Types.Dynamic -> (
                  match !dyn with
                  | d :: rest ->
                      dyn := rest;
                      d
                  | [] -> trap "memref.alloc: missing dynamic size")
              | Types.SymDim _ -> trap "memref.alloc: symbolic dim at runtime")
            dim_tmpl
        in
        let elems = List.fold_left ( * ) 1 dims in
        let buf =
          Machine.alloc m ~storage ~elems ~elem_bytes ~zero_init:zero
        in
        sset env r.k (Buf { buf; dims = Array.of_list dims });
        KContinue
  | "memref.dealloc" ->
      let x = opnd 0 in
      fun () ->
        let b = sbuffer env x.k x.v in
        Machine.free m b.buf;
        KContinue
  | "memref.load" ->
      let mr, idxs = Memref_d.load_parts o in
      let mr = sv env mr in
      let lin = compile_linear env idxs in
      let r = res () in
      fun () ->
        let b = sbuffer env mr.k mr.v in
        let l = lin b in
        sset env r.k (Scalar (Machine.load m b.buf l));
        KContinue
  | "memref.store" ->
      let v, mr, idxs = Memref_d.store_parts o in
      let v = sv env v and mr = sv env mr in
      let lin = compile_linear env idxs in
      fun () ->
        let b = sbuffer env mr.k mr.v in
        let l = lin b in
        let x = sscalar env v.k v.v in
        Machine.store m b.buf l x;
        KContinue
  | "memref.dim" ->
      let x = opnd 0 in
      let d = Option.value ~default:0 (Ir.int_attr o "index") in
      let r = res () in
      fun () ->
        let b = sbuffer env x.k x.v in
        if d < 0 || d >= Array.length b.dims then
          trap "memref.dim out of range";
        sset env r.k (Scalar (VInt b.dims.(d)));
        KContinue
  | "scf.for" ->
      let lb, ub, step = Scf_d.loop_bounds o in
      let lb = sv env lb and ub = sv env ub and step = sv env step in
      let body = Scf_d.loop_body o in
      let iv, carried_args =
        match body.rargs with
        | iv :: rest -> (sv env iv, List.map (sv env) rest)
        | [] -> trap "scf.for: missing induction variable"
      in
      let inits = List.map (sv env) (Scf_d.loop_iter_inits o) in
      let results = List.map (sv env) o.results in
      let cbody = compile_ops env ~structured:true body.rops in
      fun () ->
        let lbv = sint env lb.k lb.v in
        let ubv = sint env ub.k ub.v in
        let stepv = sint env step.k step.v in
        if stepv <= 0 then trap "scf.for: non-positive step %d" stepv;
        let carried = ref (List.map (fun a -> sget env a.k a.v) inits) in
        let i = ref lbv in
        while !i < ubv do
          Machine.charge_op m Int_alu;
          Machine.charge_op m Branch;
          sset env iv.k (Scalar (VInt !i));
          List.iter2 (fun a v -> sset env a.k v) carried_args !carried;
          (match run_seq env cbody with
          | KYield vals -> carried := vals
          | KContinue ->
              if carried_args <> [] then trap "scf.for: missing yield"
          | KReturn _ -> assert false (* func.return compiles to a trap *));
          i := !i + stepv
        done;
        List.iter2 (fun a v -> sset env a.k v) results !carried;
        KContinue
  | "scf.if" ->
      let c = opnd 0 in
      let then_r, else_r = Scf_d.if_regions o in
      let results = List.map (sv env) o.results in
      let cthen = compile_ops env ~structured:true then_r.rops in
      let celse = compile_ops env ~structured:true else_r.rops in
      fun () ->
        Machine.charge_op m Branch;
        let cv = sint env c.k c.v in
        let chosen = if cv <> 0 then cthen else celse in
        (match run_seq env chosen with
        | KYield vals -> List.iter2 (fun a v -> sset env a.k v) results vals
        | KContinue ->
            if results <> [] then trap "scf.if: branch yielded no values"
        | KReturn _ -> assert false);
        KContinue
  | "func.call" ->
      let callee = Option.value ~default:"" (Func_d.callee o) in
      let opa = Array.of_list ops in
      let results = List.map (sv env) o.results in
      fun () -> (
        (* Resolved per call, like the tree walker; the compiled body is
           memoized in [env.cfuncs] (lazily, so recursion terminates). *)
        match Ir.find_func env.modul callee with
        | None -> trap "call to unknown function @%s" callee
        | Some f ->
            Machine.charge m 20.0;
            List.iter (fun _ -> Machine.charge_op m Move) ops;
            let args = Array.map (fun a -> sget env a.k a.v) opa in
            let rets = call_cfunc env (get_cfunc env f) args in
            List.iter2 (fun a v -> sset env a.k (Scalar v)) results rets;
            KContinue)
  | name -> fun () -> trap "interpreter: unsupported operation %s" name

and compile_ops (env : env) ~(structured : bool) (ops : Ir.op list) :
    (unit -> kctrl) array =
  Array.of_list (List.map (compile_op env ~structured) ops)

and get_cfunc (env : env) (f : Ir.func) : cfunc =
  match Hashtbl.find_opt env.cfuncs f.fname with
  | Some cf -> cf
  | None ->
      let cf =
        match f.fbody with
        | None ->
            { cf_func = f; cf_body = [||]; cf_rslots = [||] }
            (* external: trapped at call time, like the tree walker *)
        | Some r ->
            let cf_rslots = Array.of_list (List.map (slot env) r.rargs) in
            {
              cf_func = f;
              cf_body = compile_ops env ~structured:false r.rops;
              cf_rslots;
            }
      in
      Hashtbl.replace env.cfuncs f.fname cf;
      cf

(* Mirrors [call_func]: depth check, then argument binding. Profiles are
   the tree walker's alone ([run] takes the tree path when given one). *)
and call_cfunc (env : env) (cf : cfunc) (args : rtval array) : Value.t list =
  if env.call_depth > 256 then trap "call depth exceeded";
  match cf.cf_func.fbody with
  | None -> trap "call to external function @%s" cf.cf_func.fname
  | Some _ ->
      if Array.length cf.cf_rslots <> Array.length args then
        trap "@%s: argument count mismatch" cf.cf_func.fname;
      env.call_depth <- env.call_depth + 1;
      Array.iteri (fun i a -> sset env cf.cf_rslots.(i) a) args;
      let result =
        match run_seq env cf.cf_body with
        | KReturn vals -> vals
        | KContinue -> []
        | KYield _ -> assert false (* scf.yield compiles to a trap here *)
      in
      env.call_depth <- env.call_depth - 1;
      result

(* ------------------------------------------------------------------ *)

(** A persistent execution context for repeated invocations of one entry
    function — used by the SDFG bytecode tier so opaque
    tasklets compile their MLIR body once per run instead of once per
    invocation. Slots are reused across invocations; this is safe
    because SSA dominance guarantees every value read is rebound first.
    The entry's compiled body is resolved once, here. *)
type prepared = { p_env : env; p_entry : cfunc }

let prepare ~(machine : Machine.t) (m : Ir.modul) ~(entry : string) :
    prepared =
  match Ir.find_func m entry with
  | None -> trap "entry function @%s not found" entry
  | Some f ->
      let env = new_env machine m in
      { p_env = env; p_entry = get_cfunc env f }

let run_prepared (p : prepared) (args : rtval array) : Value.t list =
  call_cfunc p.p_env p.p_entry args

(** [run ?machine ?profile ?mode m ~entry args] executes function [entry] of
    module [m]. Returns the function results and the machine (with metrics).
    [profile] accumulates per-function inclusive cycles/loads/stores
    attribution (a callee's work is also counted in its callers).
    [mode] selects tree-walking or compiled execution (the default); both
    charge the machine identically. A run given a [profile] walks the
    tree whatever [mode] says: the tree walker is the only profile
    implementation. *)
let run ?(machine : Machine.t option)
    ?(profile : Dcir_obs.Obs.Profile.t option) ?(mode : mode = Compiled)
    (m : Ir.modul) ~(entry : string) (args : rtval list) :
    Value.t list * Machine.t =
  let machine = match machine with Some x -> x | None -> Machine.create () in
  match Ir.find_func m entry with
  | None -> trap "entry function @%s not found" entry
  | Some f ->
      let env = new_env ?profile machine m in
      let results =
        match (mode, profile) with
        | Compiled, None ->
            call_cfunc env (get_cfunc env f) (Array.of_list args)
        | Tree, _ | Compiled, Some _ -> call_func env f args
      in
      (results, machine)
