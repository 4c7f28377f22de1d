(** Core IR structure: SSA values, operations, regions, functions, modules.

    Faithful to MLIR's essentials — ops carry a dialect-qualified name,
    operands/results, attributes, and nested regions — with one deliberate
    simplification: every region has exactly one block (with arguments).
    Polygeist emits structured control flow ([scf]), so multi-block CFGs
    never arise in this pipeline; branching is expressed by [scf.if]/[scf.for]
    regions, exactly as in the paper's input dialects. *)

type value = {
  vid : int;
  mutable vty : Types.t;
  mutable hint : string;  (** printer name hint, e.g. "arg0" *)
}

type op = {
  oid : int;
  mutable name : string;  (** dialect-qualified, e.g. "arith.addi" *)
  mutable operands : value list;
  mutable results : value list;
  mutable attrs : (string * Attr.t) list;
  mutable regions : region list;
}

and region = { mutable rargs : value list; mutable rops : op list }

type func = {
  fname : string;
  mutable fparams : value list;
  mutable fret : Types.t list;
  mutable fbody : region option;  (** [None] = external declaration *)
  mutable fattrs : (string * Attr.t) list;
}

type modul = { mutable funcs : func list; gen : Dcir_support.Id_gen.t }

(* ------------------------------------------------------------------ *)
(* Id minting *)

(* Process-wide atomic counters keep ids unique across modules and across
   domains (serve pool workers build IR concurrently); ids only need to be
   distinct, not dense. They are in-memory identity keys: the printer
   names values per function by first appearance, not by id. *)
let value_counter = Atomic.make 0
let op_counter = Atomic.make 0

let new_value ?(hint = "") (ty : Types.t) : value =
  { vid = Atomic.fetch_and_add value_counter 1; vty = ty; hint }

let new_op ?(operands = []) ?(results = []) ?(attrs = []) ?(regions = [])
    (name : string) : op =
  { oid = Atomic.fetch_and_add op_counter 1; name; operands; results; attrs;
    regions }

let new_region ?(args = []) ?(ops = []) () : region = { rargs = args; rops = ops }

let new_module () : modul = { funcs = []; gen = Dcir_support.Id_gen.create () }

let find_func (m : modul) (name : string) : func option =
  List.find_opt (fun f -> String.equal f.fname name) m.funcs

(* ------------------------------------------------------------------ *)
(* Attribute access *)

let attr (o : op) (key : string) : Attr.t option = List.assoc_opt key o.attrs

let set_attr (o : op) (key : string) (v : Attr.t) : unit =
  o.attrs <- (key, v) :: List.remove_assoc key o.attrs

let int_attr (o : op) (key : string) : int option =
  Option.bind (attr o key) Attr.as_int

let str_attr (o : op) (key : string) : string option =
  Option.bind (attr o key) Attr.as_str

let result (o : op) : value =
  match o.results with
  | [ v ] -> v
  | _ -> invalid_arg (Printf.sprintf "Ir.result: op %s has %d results" o.name
                        (List.length o.results))

(* ------------------------------------------------------------------ *)
(* Traversal *)

(** Pre-order walk over all ops in a region, recursing into nested regions. *)
let rec walk_region (r : region) (f : op -> unit) : unit =
  List.iter
    (fun o ->
      f o;
      List.iter (fun nested -> walk_region nested f) o.regions)
    r.rops

let walk_func (fn : func) (f : op -> unit) : unit =
  match fn.fbody with None -> () | Some r -> walk_region r f

let walk_module (m : modul) (f : op -> unit) : unit =
  List.iter (fun fn -> walk_func fn f) m.funcs

(** Post-order walk (children before the op itself). *)
let rec walk_region_post (r : region) (f : op -> unit) : unit =
  List.iter
    (fun o ->
      List.iter (fun nested -> walk_region_post nested f) o.regions;
      f o)
    r.rops

(* ------------------------------------------------------------------ *)
(* Use replacement *)

let replace_in_op (o : op) ~(from_ : value) ~(to_ : value) : unit =
  o.operands <-
    List.map (fun v -> if v.vid = from_.vid then to_ else v) o.operands

(** Replace all uses of [from_] with [to_] inside [r] (including nested
    regions). Definitions (results, region args) are left untouched. *)
let replace_uses_in_region (r : region) ~(from_ : value) ~(to_ : value) : unit
    =
  walk_region r (fun o -> replace_in_op o ~from_ ~to_)

(** Count uses of [v] within region [r]. *)
let count_uses (r : region) (v : value) : int =
  let n = ref 0 in
  walk_region r (fun o ->
      List.iter (fun u -> if u.vid = v.vid then incr n) o.operands);
  !n

(* ------------------------------------------------------------------ *)
(* Cloning (inlining, loop transforms) *)

module IntMap = Map.Make (Int)

type value_map = value IntMap.t

let map_value (vm : value_map) (v : value) : value =
  match IntMap.find_opt v.vid vm with Some v' -> v' | None -> v

(** Deep-clone an op, producing fresh result values and region arguments;
    [vm] maps old vids to replacement values and is threaded through so that
    intra-clone references resolve to the cloned values. Returns the cloned
    op and the extended map. *)
let rec clone_op (vm : value_map) (o : op) : op * value_map =
  let operands = List.map (map_value vm) o.operands in
  let results = List.map (fun v -> new_value ~hint:v.hint v.vty) o.results in
  let vm =
    List.fold_left2
      (fun acc old fresh -> IntMap.add old.vid fresh acc)
      vm o.results results
  in
  let regions, vm =
    List.fold_left
      (fun (rs, vm) r ->
        let r', vm' = clone_region vm r in
        (r' :: rs, vm'))
      ([], vm) o.regions
  in
  ( new_op ~operands ~results ~attrs:o.attrs ~regions:(List.rev regions) o.name,
    vm )

and clone_region (vm : value_map) (r : region) : region * value_map =
  let args = List.map (fun v -> new_value ~hint:v.hint v.vty) r.rargs in
  let vm =
    List.fold_left2
      (fun acc old fresh -> IntMap.add old.vid fresh acc)
      vm r.rargs args
  in
  let ops, vm =
    List.fold_left
      (fun (os, vm) o ->
        let o', vm' = clone_op vm o in
        (o' :: os, vm'))
      ([], vm) r.rops
  in
  (new_region ~args ~ops:(List.rev ops) (), vm)

(** Deep-clone a function. The body region is cloned with fresh values;
    [fparams] are remapped through the clone so they stay identical to the
    body region's arguments (the invariant the builders establish). *)
let clone_func (f : func) : func =
  match f.fbody with
  | None ->
      {
        fname = f.fname;
        fparams = List.map (fun v -> new_value ~hint:v.hint v.vty) f.fparams;
        fret = f.fret;
        fbody = None;
        fattrs = f.fattrs;
      }
  | Some r ->
      let r', vm = clone_region IntMap.empty r in
      {
        fname = f.fname;
        fparams = List.map (map_value vm) f.fparams;
        fret = f.fret;
        fbody = Some r';
        fattrs = f.fattrs;
      }

(** Deep-clone a module — the snapshot primitive of checked pass execution
    ({!Pass.run_to_fixpoint_stats} with [~checked]). The id generator is
    shared: ids only need to stay unique, and a restored snapshot must keep
    drawing fresh ones. *)
let clone_module (m : modul) : modul =
  { funcs = List.map clone_func m.funcs; gen = m.gen }

(** Overwrite [dst] with the contents of snapshot [src] — the rollback half
    of checked execution. *)
let restore_module ~(into : modul) (src : modul) : unit =
  into.funcs <- src.funcs

(* ------------------------------------------------------------------ *)
(* Queries *)

(** All values defined inside [r]: region args and op results, recursively. *)
let defined_values (r : region) : value list =
  let acc = ref [] in
  let rec go r =
    acc := r.rargs @ !acc;
    List.iter
      (fun o ->
        acc := o.results @ !acc;
        List.iter go o.regions)
      r.rops
  in
  go r;
  !acc

(** Values used inside [r] but defined outside — the capture set. An op such
    as [sdfg.tasklet] is IsolatedFromAbove precisely when this is empty. *)
let free_values (r : region) : value list =
  let defined = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace defined v.vid ()) (defined_values r);
  let seen = Hashtbl.create 16 in
  let free = ref [] in
  walk_region r (fun o ->
      List.iter
        (fun v ->
          if (not (Hashtbl.mem defined v.vid)) && not (Hashtbl.mem seen v.vid)
          then begin
            Hashtbl.replace seen v.vid ();
            free := v :: !free
          end)
        o.operands);
  List.rev !free
