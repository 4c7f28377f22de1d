(** Per-construct coverage dashboard ([dcir fuzz --coverage]).

    Runs a seeded campaign of generated programs through the resilient
    [dcir] pipeline (autopar on, chaos armed, compile-only)
    with the decision-event stream installed, tags each case with the C
    constructs it exercises (loop shapes, branches, ternaries, libm
    calls, compound assignments, ...), and aggregates the per-case
    decisions — loops certified/refused, rollbacks, breaker trips, tier
    degradations, structured diagnoses — into a per-construct rate table.
    This is the MLIR-Smith-style coverage argument turned into a
    dashboard: which language constructs the optimizer handles, refuses,
    or survives faults on.

    Everything is a pure function of the campaign seed, so the
    accumulated [dcir-events/1] stream is byte-identical across runs —
    the golden-test property for the event substrate. *)

open Dcir_cfront.C_ast
module Pipelines = Dcir_core.Pipelines
module Budget = Dcir_resilience.Budget
module Chaos = Dcir_resilience.Chaos
module Events = Dcir_obs.Events
module Json = Dcir_obs.Json

(* ------------------------------------------------------------------ *)
(* Construct tagging: walk the generated C AST. *)

let rec expr_tags (e : expr) : string list =
  match e with
  | EInt _ | EFloat _ | EVar _ -> []
  | EIndex (b, idxs) -> List.concat_map expr_tags (b :: idxs)
  | EUnop (_, a) -> expr_tags a
  | EBinop (_, a, b) -> expr_tags a @ expr_tags b
  | ECond (c, a, b) ->
      ("ternary" :: expr_tags c) @ expr_tags a @ expr_tags b
  | ECall (_, args) -> "libm-call" :: List.concat_map expr_tags args
  | ECast (_, a) -> "cast" :: expr_tags a
  | EMalloc (_, a) -> "malloc" :: expr_tags a

let rec stmt_tags ~(depth : int) (s : stmt) : string list =
  match s with
  | SDecl (_, _, init) ->
      "local-scalar" :: Option.fold ~none:[] ~some:expr_tags init
  | SAssign (lhs, op, rhs) ->
      let shape =
        match (lhs, op) with
        | EIndex _, OpAssign -> [ "array-store" ]
        | EIndex _, _ -> [ "array-update" ]
        | EVar _, OpAssign -> []
        | EVar _, _ -> [ "scalar-accum" ]
        | _ -> []
      in
      shape @ expr_tags lhs @ expr_tags rhs
  | SExpr e -> expr_tags e
  | SIf (c, t, e) ->
      ("branch" :: (if e = [] then [] else [ "branch-else" ]))
      @ expr_tags c
      @ List.concat_map (stmt_tags ~depth) t
      @ List.concat_map (stmt_tags ~depth) e
  | SFor (hdr, body) ->
      (if hdr.step < 0 then "for-desc" else "for-asc")
      :: ((if depth > 0 then [ "loop-nested" ] else [])
         @ (match hdr.bound with
           | EVar _ | EBinop (_, EVar _, _) | EBinop (_, _, EVar _) ->
               [ "symbolic-bound" ]
           | _ -> [])
         @ expr_tags hdr.init @ expr_tags hdr.bound
         @ List.concat_map (stmt_tags ~depth:(depth + 1)) body)
  | SWhile (c, body) ->
      "while" :: (expr_tags c @ List.concat_map (stmt_tags ~depth) body)
  | SReturn e -> "return-value" :: Option.fold ~none:[] ~some:expr_tags e
  | SFree _ -> [ "free" ]
  | SBlock body -> List.concat_map (stmt_tags ~depth) body

let constructs_of (case : Gen.case) : string list =
  List.concat_map
    (fun (f : func_def) ->
      List.filter_map
        (fun (_, ty) ->
          match ty with
          | TArr (_, dims) when List.length dims >= 2 -> Some "array-2d"
          | _ -> None)
        f.params
      @ List.concat_map (stmt_tags ~depth:0) f.body)
    case.Gen.prog.funcs
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Campaign *)

type row = {
  mutable cases : int;
  mutable certified : int;  (** loops certified parallel *)
  mutable refused : int;  (** loops refused (with witness) *)
  mutable rollbacks : int;
  mutable breaker_opens : int;
  mutable degraded : int;  (** cases landing below the requested tier *)
  mutable diagnosed : int;  (** cases ending in a structured diagnostic *)
}

let new_row () =
  {
    cases = 0;
    certified = 0;
    refused = 0;
    rollbacks = 0;
    breaker_opens = 0;
    degraded = 0;
    diagnosed = 0;
  }

type report = {
  cov_seed : int;
  cov_count : int;
  cov_rows : (string * row) list;  (** sorted by construct name *)
  cov_total : row;
  cov_events : Events.t;  (** the campaign's full decision-event stream *)
}

let run ~(count : int) ~(seed : int) () : report =
  let evs = Events.create () in
  Events.install evs;
  let rows : (string, row) Hashtbl.t = Hashtbl.create 16 in
  let row tag =
    match Hashtbl.find_opt rows tag with
    | Some r -> r
    | None ->
        let r = new_row () in
        Hashtbl.replace rows tag r;
        r
  in
  let total = new_row () in
  Fun.protect
    ~finally:(fun () ->
      Events.clear ();
      Chaos.clear ())
    (fun () ->
      for i = 0 to count - 1 do
        let case = Gen.generate (Rng.derive seed i) in
        let tags = constructs_of case in
        let plan = Chaos_campaign.case_plan ~seed i case in
        Chaos.install plan;
        let since = Events.length evs in
        let diagnosed =
          Fun.protect ~finally:Chaos.clear (fun () ->
              match
                Pipelines.compile_resilient ~checked:plan.Chaos.pl_checked
                  ~autopar:true Pipelines.Dcir ~src:case.Gen.src
                  ~entry:case.Gen.entry
              with
              | _ -> None
              | exception e -> Some (Pipelines.classify_exn e))
        in
        Chaos_campaign.emit_outcome i
          (match diagnosed with None -> "compiled" | Some _ -> "diagnosed")
          diagnosed;
        (* Tally this case's decisions from its slice of the stream. *)
        let slice =
          List.filter
            (fun (e : Events.event) -> e.Events.ev_seq >= since)
            (Events.events evs)
        in
        let count_code c =
          List.length
            (List.filter (fun (e : Events.event) -> e.Events.ev_code = c) slice)
        in
        let certified = count_code "APAR-CERT" in
        let refused = count_code "APAR-REFUSE" in
        let rollbacks = count_code "PASS-ROLLBACK" in
        let breaker_opens = count_code "BRK-OPEN" in
        let degraded =
          List.exists
            (fun (e : Events.event) ->
              e.Events.ev_code = "TIER-LAND"
              && Events.str_field e "landed" <> Events.str_field e "requested")
            slice
        in
        let bump (r : row) =
          r.cases <- r.cases + 1;
          r.certified <- r.certified + certified;
          r.refused <- r.refused + refused;
          r.rollbacks <- r.rollbacks + rollbacks;
          r.breaker_opens <- r.breaker_opens + breaker_opens;
          if degraded then r.degraded <- r.degraded + 1;
          if diagnosed <> None then r.diagnosed <- r.diagnosed + 1
        in
        bump total;
        List.iter (fun tag -> bump (row tag)) tags
      done);
  {
    cov_seed = seed;
    cov_count = count;
    cov_rows =
      Hashtbl.fold (fun tag r acc -> (tag, r) :: acc) rows []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    cov_total = total;
    cov_events = evs;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let events_header (r : report) : (string * Json.t) list =
  [
    ("tool", Json.Str "dcir fuzz --coverage");
    ("seed", Json.Int r.cov_seed);
    ("cases", Json.Int r.cov_count);
  ]

let write_events (r : report) (path : string) : unit =
  Events.write ~header:(events_header r) r.cov_events path

let pp (ppf : Format.formatter) (r : report) : unit =
  Format.fprintf ppf
    "coverage: %d case(s), seed %d, chaos armed — %d decision event(s)@."
    r.cov_count r.cov_seed
    (Events.length r.cov_events);
  Format.fprintf ppf "  %-16s %6s %9s %8s %9s %8s %9s %10s@." "construct"
    "cases" "certified" "refused" "rollback" "brk-open" "degraded" "diagnosed";
  let line tag (row : row) =
    Format.fprintf ppf "  %-16s %6d %9d %8d %9d %8d %9d %10d@." tag row.cases
      row.certified row.refused row.rollbacks row.breaker_opens row.degraded
      row.diagnosed
  in
  List.iter (fun (tag, row) -> line tag row) r.cov_rows;
  line "TOTAL" r.cov_total
