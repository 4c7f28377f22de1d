(** The symbol table of one SDFG run: its run-time integer symbols
    (sizes, loop parameters, interstate assignments), interned to dense
    ids.

    Both execution tiers use the same table. The tree walker reads and
    writes it by name; the bytecode tier resolves each name to an id when
    it lowers the program and then indexes the value array directly. Ids
    are assigned in interning order, so a table created from a program's
    name list gives name [i] the id [i]. A name interned later (the tree
    walker binds whatever names it meets) gets the next free id. *)

type t = {
  ids : (string, int) Hashtbl.t;
  mutable vals : int array;
  mutable bound : bool array;
}

let create ?(names : string array = [||]) () : t =
  let n = max 8 (Array.length names) in
  let t =
    { ids = Hashtbl.create n; vals = Array.make n 0; bound = Array.make n false }
  in
  Array.iteri (fun i s -> Hashtbl.replace t.ids s i) names;
  t

(** The id of [name], assigning the next one on first sight. *)
let intern (t : t) (name : string) : int =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.ids in
      Hashtbl.replace t.ids name i;
      let n = Array.length t.vals in
      if i >= n then begin
        let vals = Array.make (2 * n) 0 and bound = Array.make (2 * n) false in
        Array.blit t.vals 0 vals 0 n;
        Array.blit t.bound 0 bound 0 n;
        t.vals <- vals;
        t.bound <- bound
      end;
      i

(** The interned names in id order. *)
let names (t : t) : string array =
  let a = Array.make (Hashtbl.length t.ids) "" in
  Hashtbl.iter (fun s i -> a.(i) <- s) t.ids;
  a

let copy (t : t) : t =
  { ids = Hashtbl.copy t.ids; vals = Array.copy t.vals; bound = Array.copy t.bound }

(* -- by id (compiled code) -------------------------------------------- *)

let is_bound (t : t) (id : int) : bool = t.bound.(id)

(** The value of a bound id; meaningless unless [is_bound]. *)
let get (t : t) (id : int) : int = t.vals.(id)

let set_id (t : t) (id : int) (v : int) : unit =
  t.vals.(id) <- v;
  t.bound.(id) <- true

let unset_id (t : t) (id : int) : unit = t.bound.(id) <- false

(* -- by name (tree walker) --------------------------------------------- *)

let find_opt (t : t) (name : string) : int option =
  match Hashtbl.find_opt t.ids name with
  | Some i when t.bound.(i) -> Some t.vals.(i)
  | _ -> None

let set (t : t) (name : string) (v : int) : unit = set_id t (intern t name) v

let remove (t : t) (name : string) : unit =
  match Hashtbl.find_opt t.ids name with
  | Some i -> unset_id t i
  | None -> ()
