(** Tests for the shared graph/id utilities underpinning both IRs. *)

open Dcir_support

let test_fresh_names () =
  let g = Id_gen.create () in
  Alcotest.(check string) "first" "s_0" (Id_gen.fresh g "s");
  Alcotest.(check string) "second" "s_1" (Id_gen.fresh g "s");
  Alcotest.(check string) "other prefix" "t_0" (Id_gen.fresh g "t");
  Id_gen.reserve g "s_9";
  Alcotest.(check string) "reserve skips" "s_10" (Id_gen.fresh g "s")

let test_topo_sort () =
  let g = Digraph.create ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let order = Digraph.topo_sort g in
  let pos x = Option.get (List.find_index (Int.equal x) order) in
  Alcotest.(check bool) "0 before 1" true (pos 0 < pos 1);
  Alcotest.(check bool) "1 before 3" true (pos 1 < pos 3);
  Alcotest.(check bool) "2 before 3" true (pos 2 < pos 3);
  let cyclic = Digraph.create ~n:2 [ (0, 1); (1, 0) ] in
  Alcotest.(check bool) "cycle raises" true
    (try
       ignore (Digraph.topo_sort cyclic);
       false
     with Invalid_argument _ -> true)

let test_reachability () =
  let g = Digraph.create ~n:5 [ (0, 1); (1, 2); (3, 4) ] in
  let r = Digraph.reachable g ~roots:[ 0 ] in
  Alcotest.(check bool) "2 reachable" true r.(2);
  Alcotest.(check bool) "4 not" false r.(4)

let test_idom () =
  (* Diamond: 0 -> {1,2} -> 3; idom(3) = 0. *)
  let g = Digraph.create ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let doms = Digraph.idom g ~root:0 in
  Alcotest.(check int) "idom 1" 0 doms.(1);
  Alcotest.(check int) "idom 3" 0 doms.(3);
  (* Loop shape: 0 -> 1 -> 2 -> 1; 1 dominates 2. *)
  let l = Digraph.create ~n:3 [ (0, 1); (1, 2); (2, 1) ] in
  let doms = Digraph.idom l ~root:0 in
  Alcotest.(check int) "loop body dominated by header" 1 doms.(2)

let prop_rpo_starts_at_root =
  QCheck2.Test.make ~count:100 ~name:"reverse postorder starts at root"
    QCheck2.Gen.(list_size (int_range 0 30) (tup2 (int_range 0 9) (int_range 0 9)))
    (fun edges ->
      let g = Dcir_support.Digraph.create ~n:10 edges in
      match Dcir_support.Digraph.reverse_postorder g ~root:0 with
      | first :: _ -> first = 0
      | [] -> false)

(* Journal files are replaced, never truncated in place: a write that
   dies mid-emit must leave the previous bytes intact and no temp file
   behind, and a successful write must fully replace them. *)
let test_atomic_write () =
  let path = Filename.temp_file "dcir_atomic" ".txt" in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  Atomic_io.write path (fun oc -> output_string oc "first\n");
  Alcotest.(check string) "initial write lands" "first\n" (read ());
  (try
     Atomic_io.write path (fun oc ->
         output_string oc "torn";
         failwith "disk full")
   with Failure _ -> ());
  Alcotest.(check string) "old bytes survive a failed write" "first\n"
    (read ());
  Alcotest.(check bool) "no temp file left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  Atomic_io.write path (fun oc -> output_string oc "second\n");
  Alcotest.(check string) "successful write replaces" "second\n" (read ());
  Sys.remove path

let suite =
  ( "support",
    [
      Alcotest.test_case "fresh names" `Quick test_fresh_names;
      Alcotest.test_case "atomic journal writes" `Quick test_atomic_write;
      Alcotest.test_case "topological sort" `Quick test_topo_sort;
      Alcotest.test_case "reachability" `Quick test_reachability;
      Alcotest.test_case "immediate dominators" `Quick test_idom;
      QCheck_alcotest.to_alcotest prop_rpo_starts_at_root;
    ] )
