(** The ledger's four workloads.

    Each workload builds its inputs from the seed ([build], the timed
    set-up), computes its reference outputs outside any timing
    ([reference]), and then runs reps: [rep] through the composed public
    API exactly as a user calls it, [traced] through the decomposed calls
    of {!Phases} with {!Trace} on. [side] adds the measurements taken
    beside the traced rep (bytecode lowering, the serve batch replayed on
    the worker pool, the serve programs decomposed one by one).

    The generated programs are a fixed corpus; the seed orders the ops and
    lays out the serve batches. With programs drawn afresh per seed, the
    median compile latency moved by a third between seeds, more than any
    useful regression bound. *)

open Dcir_workloads
module Pipelines = Dcir_core.Pipelines
module Budget = Dcir_resilience.Budget
module Metrics = Dcir_machine.Metrics
module Value = Dcir_machine.Value
module Json = Dcir_obs.Json
module Gen = Dcir_fuzz.Gen
module Rng = Dcir_fuzz.Rng
module Oracle = Dcir_fuzz.Oracle
module Request = Dcir_serve.Request
module Engine = Dcir_serve.Engine
module Sjournal = Dcir_serve.Sjournal
module Synth = Dcir_serve.Synth

type sizes = {
  kernels : int;  (** Polybench kernels, in suite order *)
  programs : int;  (** generated programs in compile-mix *)
  hot_requests : int;
  cold_requests : int;
}

let full = { kernels = 29; programs = 300; hot_requests = 120; cold_requests = 240 }
let smoke = { kernels = 3; programs = 20; hot_requests = 24; cold_requests = 24 }

type rep = {
  lat_ms : float list;
      (** per op; a serve batch is one entry, the latency of each of its
          requests *)
  wall_s : float;  (** time spent in ops *)
  attempted : int;
  failed : int;  (** ops that failed or were refused *)
  wrong : string list;  (** wrong answers, described *)
}

type instance = {
  ops : int;  (** ops in one rep *)
  reference : unit -> unit;
  rep : unit -> rep;
  traced : unit -> rep;
  side : unit -> string list;  (** wrong answers found beside the rep *)
}

type t = {
  name : string;
  build : sizes -> seed:int -> workers:int -> instance;
}

(* ---- shared helpers --------------------------------------------------- *)

let now = Unix.gettimeofday

let timed (f : unit -> 'a) : ('a, exn) result * float =
  let t0 = now () in
  let r = match f () with v -> Ok v | exception e -> Error e in
  (r, now () -. t0)

(* Fisher-Yates under the seed: the seed orders ops and requests, and
   changes nothing else. *)
let shuffle ~(seed : int) (a : 'a array) : 'a array =
  let a = Array.copy a in
  let rng = Rng.make (Rng.derive seed 0x1ed9e) in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The generated corpora. Distinct tags keep compile-mix and serve-cold
   on different programs. *)
let corpus ~(tag : int) (n : int) : Gen.case list =
  List.init n (fun i -> Gen.generate (Rng.derive tag i))

let kernels (sizes : sizes) : Workload.t list =
  List.filteri (fun i _ -> i < sizes.kernels) Polybench.all

(* The reference: the unoptimized Polygeist lowering on the MLIR tree
   walker. *)
let reference_run ~(src : string) ~(entry : string) (args : Pipelines.arg list)
    : Pipelines.run_result =
  Pipelines.run ~interp_mode:`Tree
    (Pipelines.CMlir (Dcir_cfront.Polygeist.compile src))
    ~entry args

let bits_equal (a : Value.t) (b : Value.t) : bool =
  match (a, b) with
  | Value.VFloat x, Value.VFloat y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.VInt x, Value.VInt y -> x = y
  | _ -> false

let identical (a : Pipelines.run_result) (b : Pipelines.run_result) : bool =
  (match (a.return_value, b.return_value) with
  | Some x, Some y -> bits_equal x y
  | None, None -> true
  | _ -> false)
  && List.length a.outputs = List.length b.outputs
  && List.for_all2
       (fun (i, x) (j, y) ->
         i = j && Array.length x = Array.length y && Array.for_all2 bits_equal x y)
       a.outputs b.outputs
  && Metrics.equal a.metrics b.metrics

type outcome = Done | Failed | Wrong of string

(* Op orders for successive reps, each drawn from the seed. Which op
   absorbs a garbage collection or a slow spell of the host then changes
   from rep to rep, and an op's least latency over the reps leaves it out:
   with one fixed order, the compile-mix p90 spread 9% over ten seeds. *)
let orders ~(seed : int) (n : int) : unit -> int array =
  let k = ref 0 in
  fun () ->
    incr k;
    shuffle ~seed:(Rng.derive seed !k) (Array.init n Fun.id)

(* Runs the ops in [order], timing each; [check] classifies each result.
   Latencies are listed by op, whatever the order. *)
let run_ops (order : int array) (op : int -> ('a, exn) result * float)
    (check : int -> ('a, exn) result -> outcome) : rep =
  let n = Array.length order in
  let lat = Array.make n 0.0 and failed = ref 0 and wrong = ref [] in
  Array.iter
    (fun i ->
      let r, dt = op i in
      lat.(i) <- dt *. 1e3;
      match check i r with
      | Done -> ()
      | Failed -> incr failed
      | Wrong msg -> wrong := msg :: !wrong)
    order;
  { lat_ms = Array.to_list lat; wall_s = Array.fold_left ( +. ) 0.0 lat /. 1e3;
    attempted = n; failed = !failed; wrong = List.rev !wrong }

let validate_product (label : string) (c : Pipelines.compiled) : outcome =
  match c with
  | Pipelines.CSdfg sdfg -> (
      match Dcir_sdfg.Validate.errors sdfg with
      | [] -> Done
      | d :: _ ->
          Wrong (Printf.sprintf "%s: invalid SDFG: %s" label
                   d.Dcir_sdfg.Validate.message))
  | Pipelines.CMlir _ -> Wrong (label ^ ": dcir produced no SDFG")

(* ---- polybench-sweep -------------------------------------------------- *)

(* Fig 6: every kernel through the five pipelines. One op is the compile
   (fresh budget, as [compare_pipelines] does) plus the run. *)
let sweep (sizes : sizes) ~(seed : int) ~workers:_ : instance =
  let cases =
    List.map (fun (w : Workload.t) -> (w, w.args ())) (kernels sizes)
  in
  let ops =
    Array.of_list
      (List.concat_map
         (fun c -> List.map (fun k -> (c, k)) Pipelines.all_kinds)
         cases)
  in
  let n = Array.length ops in
  let next_order = orders ~seed n in
  let label i =
    let ((w : Workload.t), _), k = ops.(i) in
    w.name ^ "/" ^ Pipelines.kind_name k
  in
  let refs = Hashtbl.create 32 in
  (* The latest untraced and traced result of each op, compared bit for
     bit whenever both exist. *)
  let untraced_res : Pipelines.run_result option array = Array.make n None in
  let traced_res : Pipelines.run_result option array = Array.make n None in
  let products : Pipelines.compiled option array = Array.make n None in
  let reference () =
    List.iter
      (fun ((w : Workload.t), args) ->
        Hashtbl.replace refs w.name (reference_run ~src:w.src ~entry:w.entry args))
      cases
  in
  let check ~traced i r =
    let ((w : Workload.t), _), _ = ops.(i) in
    match r with
    | Error _ -> Failed
    | Ok (r : Pipelines.run_result) -> (
        match Oracle.divergence (Hashtbl.find refs w.name) r with
        | Some msg -> Wrong (label i ^ ": " ^ msg)
        | None -> (
            let mine, other =
              if traced then (traced_res, untraced_res) else (untraced_res, traced_res)
            in
            mine.(i) <- Some r;
            match other.(i) with
            | Some o when not (identical r o) ->
                Wrong (label i ^ ": traced run differs from the untraced run")
            | _ -> Done))
  in
  let rep () =
    run_ops (next_order ())
      (fun i ->
        let ((w : Workload.t), args), kind = ops.(i) in
        timed (fun () ->
            let c =
              Pipelines.compile ~budget:(Budget.create ()) kind ~src:w.src
                ~entry:w.entry
            in
            Pipelines.run ~budget:(Budget.create ()) c ~entry:w.entry args))
      (check ~traced:false)
  in
  let traced () =
    let dcir_cycles = ref [] in
    let r =
      run_ops (next_order ())
        (fun i ->
          let ((w : Workload.t), args), kind = ops.(i) in
          timed (fun () ->
              Trace.span ~op:i "op" (fun () ->
                  let c =
                    Phases.compile ~budget:(Budget.create ()) kind ~src:w.src
                      ~entry:w.entry
                  in
                  products.(i) <- Some c;
                  let r =
                    Phases.run ~budget:(Budget.create ()) c ~entry:w.entry args
                  in
                  if kind = Pipelines.Dcir then
                    dcir_cycles := r.metrics.cycles :: !dcir_cycles;
                  r)))
        (check ~traced:true)
    in
    Trace.count "machine.dcir_cycles_geomean" (Stats.geomean !dcir_cycles);
    r
  in
  let side () =
    Array.iteri
      (fun i c -> Option.iter (Phases.lower_side_by_side ~plan:false ~op:i) c)
      products;
    Array.fill products 0 n None;
    []
  in
  { ops = n; reference; rep; traced; side }

(* ---- compile-mix ------------------------------------------------------ *)

(* The compiler alone: generated programs and the Polybench kernels
   through [compile_resilient ~autopar:true Dcir] at O2 — the path of
   [dcir run --degrade --parallel] — with no execution. The ladder turns
   the optimizer's known failures on a few generated programs into
   degradations, which the traced run counts. *)
let compile_mix (sizes : sizes) ~(seed : int) ~workers:_ : instance =
  let sources =
    List.map
      (fun (c : Gen.case) -> (Printf.sprintf "gen%d" c.seed, c.src, c.entry))
      (corpus ~tag:0xc0de sizes.programs)
    @ List.map
        (fun (w : Workload.t) -> (w.name, w.src, w.entry))
        (kernels sizes)
  in
  let ops = Array.of_list sources in
  let n = Array.length ops in
  let next_order = orders ~seed n in
  let products : Pipelines.compiled option array = Array.make n None in
  let check i = function
    | Error _ -> Failed
    | Ok c ->
        let label, _, _ = ops.(i) in
        validate_product label c
  in
  let rep () =
    run_ops (next_order ())
      (fun i ->
        let _, src, entry = ops.(i) in
        timed (fun () ->
            fst
              (Pipelines.compile_resilient ~autopar:true Pipelines.Dcir ~src
                 ~entry)))
      check
  in
  let traced () =
    run_ops (next_order ())
      (fun i ->
        let _, src, entry = ops.(i) in
        timed (fun () ->
            Trace.span ~op:i "op" (fun () ->
                let c = Phases.resilient ~autopar:true Pipelines.Dcir ~src ~entry in
                products.(i) <- Some c;
                c)))
      check
  in
  let side () =
    Array.iteri
      (fun i c -> Option.iter (Phases.lower_side_by_side ~plan:true ~op:i) c)
      products;
    Array.fill products 0 n None;
    []
  in
  { ops = n; reference = ignore; rep; traced; side }

(* ---- serve ------------------------------------------------------------ *)

type expect =
  | Run_ok of (unit -> Pipelines.arg list)  (** the inputs the engine binds *)
  | Compile_ok
  | Poison  (** rejected by the frontend, or refused once its breaker opened *)

type slot = {
  sl_tenant : string;
  sl_op : string;
  sl_source : Json.t;  (** the request's [source] member *)
  sl_src : string;
  sl_entry : string;
  sl_size : int;
  sl_expect : expect;
}

(* The batch goes through the request-file parser, as [dcir serve] reads
   it. *)
let parse_batch (slots : slot array) : (Request.t, Request.rejected) result list =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "dcir-serve-requests/1");
        ( "requests",
          Json.List
            (Array.to_list
               (Array.mapi
                  (fun i s ->
                    Json.Obj
                      [
                        ("id", Json.Str (Printf.sprintf "r%d" i));
                        ("tenant", Json.Str s.sl_tenant);
                        ("op", Json.Str s.sl_op);
                        ("source", s.sl_source);
                        ("size", Json.Int s.sl_size);
                      ])
                  slots)) );
      ]
  in
  match Request.parse (Json.to_string doc) with
  | Ok requests -> requests
  | Error e -> failwith ("serve batch: " ^ e)

let rendered (f : 'a -> Json.t) (xs : 'a list) : string list =
  List.map (fun x -> Json.to_string (f x)) xs

(* Renderings found in one list and not the other, counted with
   multiplicity: a reordering or one changed entry counts once per side. *)
let differing (a : string list) (b : string list) : int =
  let rec go acc a b =
    match (a, b) with
    | x :: xs, y :: ys ->
        let c = String.compare x y in
        if c = 0 then go acc xs ys
        else if c < 0 then go (acc + 1) xs b
        else go (acc + 1) a ys
    | rest, [] | [], rest -> acc + List.length rest
  in
  go 0 (List.sort String.compare a) (List.sort String.compare b)

let store_count (r : Engine.report) (key : string) : int =
  match List.assoc_opt key r.rp_plan_cache with Some (Json.Int n) -> n | _ -> 0

(* One closed batch: every request is submitted at once to one
   [Engine.run], which answers them all when the batch ends. *)
let serve ~(slots : sizes -> seed:int -> slot array) (sizes : sizes)
    ~(seed : int) ~(workers : int) : instance =
  let slots = slots sizes ~seed in
  let requests = parse_batch slots in
  let n = Array.length slots in
  let config workers =
    { Engine.default_config with cfg_seed = seed; cfg_queue = n; cfg_workers = workers }
  in
  let refs : (string, Pipelines.run_result) Hashtbl.t = Hashtbl.create 64 in
  let reference () =
    Array.iter
      (fun s ->
        match s.sl_expect with
        | Run_ok args when not (Hashtbl.mem refs s.sl_src) ->
            Hashtbl.replace refs s.sl_src
              (reference_run ~src:s.sl_src ~entry:s.sl_entry (args ()))
        | Run_ok _ | Compile_ok | Poison -> ())
      slots
  in
  let diverges (s : slot) (r : Pipelines.run_result) : string option =
    Oracle.divergence (Hashtbl.find refs s.sl_src) r
  in
  let check (report : Engine.report) : int * string list =
    let failed = ref 0 and wrong = ref [] in
    let answered = Array.make n 0 in
    let bad id msg = wrong := (id ^ ": " ^ msg) :: !wrong in
    List.iter
      (fun (rs : Sjournal.response) ->
        let i = int_of_string (String.sub rs.rs_id 1 (String.length rs.rs_id - 1)) in
        answered.(i) <- answered.(i) + 1;
        match (slots.(i).sl_expect, rs.rs_status) with
        | Poison, Sjournal.Done -> bad rs.rs_id "a poison request was served"
        | Poison, (Sjournal.Failed | Sjournal.Rejected) -> ()
        | (Run_ok _ | Compile_ok), (Sjournal.Failed | Sjournal.Rejected) ->
            incr failed
        | Compile_ok, Sjournal.Done ->
            if rs.rs_digest = None then bad rs.rs_id "compile response has no digest"
        | Run_ok _, Sjournal.Done -> (
            match List.assoc_opt rs.rs_id report.rp_results with
            | None -> bad rs.rs_id "run response has no result"
            | Some r -> Option.iter (bad rs.rs_id) (diverges slots.(i) r)))
      report.rp_responses;
    Array.iteri
      (fun i k -> if k <> 1 then bad (Printf.sprintf "r%d" i) (Printf.sprintf "%d responses" k))
      answered;
    (!failed, List.rev !wrong)
  in
  let batch ~workers : Engine.report * rep =
    let t0 = now () in
    let report = Engine.run ~config:(config workers) requests in
    let dt = now () -. t0 in
    let failed, wrong = check report in
    (report, { lat_ms = [ dt *. 1e3 ]; wall_s = dt; attempted = n; failed; wrong })
  in
  let sequential = ref None in
  (* The measured batches run on one worker: on two, the pool returns a
     wrong answer in about one all-distinct batch in three (README,
     finding d), and a benchmark that can fail its own check at random
     cannot gate anything. The traced run replays the batch on the pool
     and counts what goes wrong there instead. *)
  let rep () = snd (batch ~workers:1) in
  let traced () =
    let report, r = Trace.span ~op:0 "serve.batch" (fun () -> batch ~workers:1) in
    sequential := Some report;
    let count = Trace.count_int in
    count "serve.store_hits" (store_count report "hits");
    count "serve.store_misses" (store_count report "misses");
    count "serve.store_evictions" (store_count report "evictions");
    count "serve.retries" (Sjournal.count_code report.rp_journal "SRV-RETRY");
    List.iter
      (fun (rs : Sjournal.response) ->
        count "serve.attempts" rs.rs_attempts;
        if rs.rs_code = "breaker-open" then count "serve.breaker_rejects" 1)
      report.rp_responses;
    r
  in
  let side () =
    (* The batch on the worker pool: coalescing, and how far the pool
       strays from the one-worker journal and answers. *)
    let pooled, pool_rep =
      Trace.span ~op:0 "serve.pool" (fun () -> batch ~workers)
    in
    Trace.count_int "serve.coalesced" pooled.rp_coalesced;
    Trace.count_int "serve.pool_store_misses" (store_count pooled "misses");
    Trace.count_int "serve.pool_wrong" (List.length pool_rep.wrong);
    Option.iter
      (fun (seq : Engine.report) ->
        Trace.count_int "serve.pool_divergent"
          (differing
             (rendered Sjournal.response_json pooled.rp_responses)
             (rendered Sjournal.response_json seq.rp_responses)
          + differing
              (rendered Sjournal.entry_json (Sjournal.entries pooled.rp_journal))
              (rendered Sjournal.entry_json (Sjournal.entries seq.rp_journal))))
      !sequential;
    sequential := None;
    (* Each distinct program of the batch once, decomposed into its layers
       the way the engine's attempts run it: the validated tier ladder from
       O2, then the run, or for a compile request the plan that warms the
       store. *)
    let seen = Hashtbl.create 64 in
    let wrong = ref [] in
    Array.iteri
      (fun i s ->
        let poison = match s.sl_expect with Poison -> true | _ -> false in
        if (not poison) && not (Hashtbl.mem seen s.sl_src) then begin
          Hashtbl.replace seen s.sl_src ();
          let op = i + 1 in
          let c =
            Trace.span ~op "op" (fun () ->
                let c =
                  Phases.resilient ~autopar:false Pipelines.Dcir ~src:s.sl_src
                    ~entry:s.sl_entry
                in
                (match (s.sl_expect, c) with
                | Run_ok args, _ ->
                    let r =
                      Phases.run ~budget:(Budget.create ()) c ~entry:s.sl_entry
                        (args ())
                    in
                    Option.iter
                      (fun msg -> wrong := Printf.sprintf "r%d decomposed: %s" i msg :: !wrong)
                      (diverges s r)
                | _, Pipelines.CSdfg sdfg ->
                    ignore (Trace.span "sdfg.plan" (fun () -> Pipelines.plan_for sdfg))
                | _, Pipelines.CMlir _ -> ());
                c)
          in
          Phases.lower_side_by_side ~plan:false ~op c
        end)
      slots;
    List.rev !wrong
  in
  { ops = n; reference; rep; traced; side }

(* serve-hot: six Polybench workloads, one per suite category, each named
   by the same number of run requests so that every seed asks for the same
   work; the seed orders the requests. *)
let hot_set = Polybench.[ gemm; atax; durbin; correlation; jacobi_2d; deriche ]

let hot_slots (sizes : sizes) ~(seed : int) : slot array =
  let ws = Array.of_list hot_set in
  shuffle ~seed
    (Array.init sizes.hot_requests (fun i -> ws.(i mod Array.length ws)))
  |> Array.mapi (fun i (w : Workload.t) ->
         {
           sl_tenant = Printf.sprintf "t%d" (i mod 3);
           sl_op = "run";
           sl_source = Json.Obj [ ("workload", Json.Str w.name) ];
           sl_src = w.src;
           sl_entry = w.entry;
           sl_size = 16;
           sl_expect = Run_ok w.args;
         })

(* serve-cold: every program distinct, so the artifact store only misses
   and evicts. One request in eight is poison, sent by a fourth tenant
   whose breaker trips; one valid program in five is compile-only. A run
   request's scalar size is its program's own bound [n], which keeps every
   access in bounds under [Synth.args]. *)
let poison_sources =
  [|
    "int broken(int n) { return m; }";
    "double broken(double x) { return y * x; }";
    "int broken(int n) { int k = 0; return k + q; }";
  |]

let cold_slots (sizes : sizes) ~(seed : int) : slot array =
  let n_poison = sizes.cold_requests / 8 in
  let inline src entry =
    Json.Obj [ ("inline", Json.Str src); ("entry", Json.Str entry) ]
  in
  let valid =
    List.mapi
      (fun k (c : Gen.case) ->
        let size =
          List.fold_left
            (fun acc a -> match a with Pipelines.AInt v -> v | _ -> acc)
            16 (c.args ())
        in
        let compile_only = k mod 5 = 0 in
        {
          sl_tenant = Printf.sprintf "t%d" (k mod 3);
          sl_op = (if compile_only then "compile" else "run");
          sl_source = inline c.src c.entry;
          sl_src = c.src;
          sl_entry = c.entry;
          sl_size = size;
          sl_expect =
            (if compile_only then Compile_ok
             else
               Run_ok
                 (fun () -> Synth.args c.src c.entry ~size:(float_of_int size)));
        })
      (corpus ~tag:0x5e7e (sizes.cold_requests - n_poison))
  in
  let poison =
    List.init n_poison (fun k ->
        let src = poison_sources.(k mod Array.length poison_sources) in
        {
          sl_tenant = "tp";
          sl_op = "run";
          sl_source = inline src "broken";
          sl_src = src;
          sl_entry = "broken";
          sl_size = 16;
          sl_expect = Poison;
        })
  in
  shuffle ~seed (Array.of_list (valid @ poison))

let all : t list =
  [
    { name = "polybench-sweep"; build = sweep };
    { name = "compile-mix"; build = compile_mix };
    { name = "serve-hot"; build = serve ~slots:hot_slots };
    { name = "serve-cold"; build = serve ~slots:cold_slots };
  ]

