(** Supervised multi-domain worker pool for the serving engine.

    The pool splits one dequeue-and-process loop into two roles without
    changing what it computes:

    - {b workers} (OCaml 5 domains) execute steps speculatively: each
      takes a queued entry, runs the engine's pure step function in
      isolation (own budget and chaos stream, domain-local ambient
      state) and hands back an effect record;
    - the {b supervisor} (the calling domain) owns every piece of
      committed state — the admission queue, the journal, the response
      list — and applies effect records strictly in
      queue pop order, exactly the order the sequential engine commits.

    Dispatch rule: an entry may run ahead of its commit slot iff it is
    the {e first} unclaimed entry of its group (tenant) in the queue and
    its group has no step already in flight. One in-flight step per
    group means every tenant-local decision (quota, breaker, backoff)
    reads exactly the state it would have read sequentially, because all
    earlier steps of that group are already committed; steps of
    different groups never read each other's state. Backoff re-insertion
    keeps a retried entry behind its group's queue front
    ({!Admission.reinsert} skips at least two same-group entries), so a
    claim is never invalidated by a retry.

    Crash isolation: an exception escaping a worker's step is caught on
    the worker, converted by the caller-provided [crash] handler into an
    ordinary effect record, and committed like any other result — one
    poisoned entry can never take down the batch. A retried entry is
    re-dispatched with its previous domain excluded, so a fault tied to
    one worker's state cannot chase the entry across attempts. *)

(* One speculative execution of one queued entry. [epoch] counts
   dispatches of the same admission ordinal (retries re-enter the queue
   and run again), keeping result keys unique across attempts. *)
type 'a task = {
  t_key : int * int;  (* admission ordinal, dispatch epoch *)
  t_entry : 'a Admission.entry;
  t_exclude : int option;  (* domain banned for this dispatch *)
}

(** [drain ~workers ~queue ~group_of ~exec ~crash ~commit] processes the
    queue to empty. [exec ~domain entry] runs one step on a worker
    domain; [crash entry exn] converts an escaped exception into an
    effect record; [commit entry fx] applies a record on the supervisor
    (journal, responses, re-insertion) and returns [true] when the entry
    re-entered the queue. Commit order is queue pop order — the
    sequential engine's order — regardless of completion order. *)
let drain (type fx) ~(workers : int) ~(queue : 'a Admission.t)
    ~(group_of : 'a -> string) ~(exec : domain:int -> 'a Admission.entry -> fx)
    ~(crash : 'a Admission.entry -> exn -> fx)
    ~(commit : 'a Admission.entry -> fx -> bool) : unit =
  let m = Mutex.create () in
  let work_cv = Condition.create () in
  let done_cv = Condition.create () in
  let pending : 'a task list ref = ref [] in
  let results : (int * int, fx) Hashtbl.t = Hashtbl.create 32 in
  let ran_on : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  (* admission ordinal -> epoch of the in-flight dispatch *)
  let claimed : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let epochs : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let busy : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let last_domain : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let stop = ref false in

  (* m held. *)
  let claim (e : 'a Admission.entry) : unit =
    let order = e.Admission.qe_order in
    let ep = Option.value ~default:0 (Hashtbl.find_opt epochs order) in
    Hashtbl.replace epochs order (ep + 1);
    Hashtbl.replace claimed order ep;
    Hashtbl.replace busy (group_of e.Admission.qe_item) ();
    let exclude =
      if workers > 1 then Hashtbl.find_opt last_domain order else None
    in
    pending := !pending @ [ { t_key = (order, ep); t_entry = e; t_exclude = exclude } ];
    Condition.broadcast work_cv
  in
  (* m held. Claim every entry allowed to run ahead: front-to-back, the
     first unclaimed entry of each not-in-flight group. *)
  let dispatch () : unit =
    List.iter
      (fun (e : 'a Admission.entry) ->
        let g = group_of e.Admission.qe_item in
        if (not (Hashtbl.mem claimed e.Admission.qe_order))
           && not (Hashtbl.mem busy g)
        then claim e)
      queue.Admission.entries
  in

  let rec worker (d : int) : unit =
    Mutex.lock m;
    let rec take () =
      if !stop then None
      else
        match
          List.find_opt
            (fun t -> workers <= 1 || t.t_exclude <> Some d)
            !pending
        with
        | Some t ->
            pending := List.filter (fun u -> u != t) !pending;
            Some t
        | None ->
            Condition.wait work_cv m;
            take ()
    in
    match take () with
    | None -> Mutex.unlock m
    | Some t ->
        Mutex.unlock m;
        let fx =
          try exec ~domain:d t.t_entry with e -> crash t.t_entry e
        in
        Mutex.lock m;
        Hashtbl.replace results t.t_key fx;
        Hashtbl.replace ran_on t.t_key d;
        Condition.broadcast done_cv;
        Mutex.unlock m;
        worker d
  in
  let domains =
    Array.init workers (fun d -> Domain.spawn (fun () -> worker d))
  in
  let supervise () =
    let rec loop () =
      Mutex.lock m;
      dispatch ();
      Mutex.unlock m;
      match Admission.pop queue with
      | None -> ()
      | Some e ->
          let order = e.Admission.qe_order in
          let g = group_of e.Admission.qe_item in
          Mutex.lock m;
          (* The queue front is claimed by the dispatch above (its group
             cannot be in flight: every earlier entry is committed).
             Claim defensively all the same. *)
          if not (Hashtbl.mem claimed order) then claim e;
          let key = (order, Hashtbl.find claimed order) in
          while not (Hashtbl.mem results key) do
            Condition.wait done_cv m
          done;
          let fx = Hashtbl.find results key in
          Hashtbl.remove results key;
          Hashtbl.replace last_domain order (Hashtbl.find ran_on key);
          Hashtbl.remove ran_on key;
          Hashtbl.remove claimed order;
          Hashtbl.remove busy g;
          Mutex.unlock m;
          let retried = commit e fx in
          if not retried then begin
            Mutex.lock m;
            Hashtbl.remove last_domain order;
            Hashtbl.remove epochs order;
            Mutex.unlock m
          end;
          loop ()
    in
    loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock m;
      stop := true;
      Condition.broadcast work_cv;
      Mutex.unlock m;
      Array.iter Domain.join domains)
    supervise
