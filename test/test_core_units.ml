(* Unit tests for the DBT core's data structures: the three code-cache
   levels, the speculation queues, and the analysis module. *)

open Vat_desim
open Vat_host
open Vat_core

let dummy_block ?(addr = 0x1000) ?(host_insns = 20) ?(term = Block.T_jmp { target = 0x2000 })
    () : Block.t =
  Block.make ~guest_addr:addr ~guest_len:16 ~guest_insns:5
    ~code:(Array.make host_insns Hinsn.Nop) ~term ~optimized:true
    ~translation_cycles:100 ~page_lo:(addr / 4096) ~page_hi:(addr / 4096)

(* --- L1 code cache ----------------------------------------------------- *)

let test_l1_tight_pack_flush () =
  let block = dummy_block () in
  let size = Block.size_bytes block in
  let capacity = size * 4 in
  let l1 = Code_cache.L1.create ~capacity in
  for i = 0 to 3 do
    ignore (Code_cache.L1.install l1 (dummy_block ~addr:(0x1000 + (i * 64)) ()))
  done;
  Alcotest.(check int) "packed" (4 * size) (Code_cache.L1.used_bytes l1);
  Alcotest.(check int) "no flush yet" 0 (Code_cache.L1.flushes l1);
  (* One more does not fit: the whole cache flushes first. *)
  ignore (Code_cache.L1.install l1 (dummy_block ~addr:0x9000 ()));
  Alcotest.(check int) "flushed" 1 (Code_cache.L1.flushes l1);
  Alcotest.(check int) "only newcomer" size (Code_cache.L1.used_bytes l1);
  Alcotest.(check bool) "old entry gone" true
    (Code_cache.L1.find l1 0x1000 = None)

let test_l1_chaining_fields () =
  let l1 = Code_cache.L1.create ~capacity:100_000 in
  let a = Code_cache.L1.install l1 (dummy_block ~addr:0x1000 ()) in
  let b = Code_cache.L1.install l1 (dummy_block ~addr:0x2000 ()) in
  a.chain_taken <- Some b;
  (match Code_cache.L1.find l1 0x1000 with
   | Some e ->
     Alcotest.(check bool) "chain set" true
       (match e.chain_taken with Some x -> x == b | None -> false)
   | None -> Alcotest.fail "entry lost");
  Code_cache.L1.flush l1;
  Alcotest.(check bool) "gone after flush" true (Code_cache.L1.find l1 0x2000 = None)

(* --- L1.5 -------------------------------------------------------------- *)

let test_l15_lru_eviction () =
  let block_size = Block.size_bytes (dummy_block ()) in
  let l15 = Code_cache.L15.create ~capacity:(block_size * 3) in
  List.iter
    (fun a -> Code_cache.L15.install l15 (dummy_block ~addr:a ()))
    [ 0x1000; 0x2000; 0x3000 ];
  (* Touch 0x1000 so 0x2000 becomes LRU; a fourth block evicts it. *)
  ignore (Code_cache.L15.find l15 0x1000);
  Code_cache.L15.install l15 (dummy_block ~addr:0x4000 ());
  Alcotest.(check bool) "refreshed survives" true
    (Code_cache.L15.find l15 0x1000 <> None);
  Alcotest.(check bool) "LRU evicted" true
    (Code_cache.L15.find l15 0x2000 = None)

let test_l15_drop_page () =
  let l15 = Code_cache.L15.create ~capacity:1_000_000 in
  Code_cache.L15.install l15 (dummy_block ~addr:0x1000 ());
  Code_cache.L15.install l15 (dummy_block ~addr:0x5000 ());
  Code_cache.L15.drop_page l15 (0x1000 / 4096);
  Alcotest.(check bool) "same page dropped" true
    (Code_cache.L15.find l15 0x1000 = None);
  Alcotest.(check bool) "other page kept" true
    (Code_cache.L15.find l15 0x5000 <> None)

(* --- L2 + page registry ------------------------------------------------ *)

let test_l2_page_registry () =
  let l2 = Code_cache.L2.create ~capacity:(1 lsl 24) in
  Code_cache.L2.install l2 (dummy_block ~addr:0x1000 ());
  Code_cache.L2.install l2 (dummy_block ~addr:0x1040 ());
  Code_cache.L2.install l2 (dummy_block ~addr:0x5000 ());
  Alcotest.(check bool) "page 1 has code" true
    (Code_cache.L2.page_has_code l2 ~page:1);
  Alcotest.(check bool) "page 2 empty" false
    (Code_cache.L2.page_has_code l2 ~page:2);
  Alcotest.(check int) "invalidate drops both" 2
    (Code_cache.L2.invalidate_page l2 ~page:1);
  Alcotest.(check bool) "registry updated" false
    (Code_cache.L2.page_has_code l2 ~page:1);
  Alcotest.(check int) "one block left" 1 (Code_cache.L2.blocks l2)

let test_l2_reinstall_same_addr () =
  let l2 = Code_cache.L2.create ~capacity:(1 lsl 24) in
  Code_cache.L2.install l2 (dummy_block ~addr:0x1000 ~host_insns:10 ());
  let used1 = Code_cache.L2.used_bytes l2 in
  Code_cache.L2.install l2 (dummy_block ~addr:0x1000 ~host_insns:30 ());
  Alcotest.(check int) "single entry" 1 (Code_cache.L2.blocks l2);
  Alcotest.(check bool) "bytes replaced, not leaked" true
    (Code_cache.L2.used_bytes l2 > used1
     && Code_cache.L2.used_bytes l2 < used1 * 4)

(* --- Speculation queues ------------------------------------------------ *)

let mk_spec ?(cfg = Config.default) () = Spec.create cfg (Stats.create ())

let test_spec_priorities () =
  let s = mk_spec () in
  (* Deep speculation first, then a demand request: demand pops first. *)
  Spec.note_block_translated s
    (dummy_block ~addr:0x9000 ~term:(Block.T_jmp { target = 0xAAAA }) ());
  Spec.request_demand s 0xBBBB;
  Alcotest.(check (option int)) "demand first" (Some 0xBBBB) (Spec.pop s);
  Alcotest.(check (option int)) "then speculation" (Some 0xAAAA) (Spec.pop s)

let test_spec_promotion_dedup () =
  let s = mk_spec () in
  Spec.note_block_translated s
    (dummy_block ~addr:0x9000 ~term:(Block.T_jmp { target = 0xAAAA }) ());
  (* The same address becomes a demand miss: promoted, not duplicated. *)
  Spec.request_demand s 0xAAAA;
  Alcotest.(check (option int)) "promoted" (Some 0xAAAA) (Spec.pop s);
  Alcotest.(check (option int)) "no stale duplicate" None (Spec.pop s)

let test_spec_backward_taken_priority () =
  let s = mk_spec () in
  (* A backward conditional: the taken (backward) arm must pop first. *)
  Spec.note_block_translated s
    (dummy_block ~addr:0x9000
       ~term:(Block.T_jcc { taken = 0x100; fall = 0x9100 })
       ());
  Alcotest.(check (option int)) "backward taken first" (Some 0x100) (Spec.pop s)

let test_spec_return_predictor () =
  let s = mk_spec () in
  Spec.note_block_translated s
    (dummy_block ~addr:0x9000
       ~term:(Block.T_call { target = 0x4000; ret = 0x9010 })
       ());
  Alcotest.(check (option int)) "callee before return" (Some 0x4000) (Spec.pop s);
  Alcotest.(check (option int)) "return address queued" (Some 0x9010) (Spec.pop s);
  (* Without the return predictor the return address is not queued. *)
  let s2 = mk_spec ~cfg:{ Config.default with return_predictor = false } () in
  Spec.note_block_translated s2
    (dummy_block ~addr:0x9000
       ~term:(Block.T_call { target = 0x4000; ret = 0x9010 })
       ());
  Alcotest.(check (option int)) "callee" (Some 0x4000) (Spec.pop s2);
  Alcotest.(check (option int)) "no return entry" None (Spec.pop s2)

let test_spec_no_speculation_mode () =
  let s = mk_spec ~cfg:{ Config.default with speculation = false } () in
  Spec.note_block_translated s
    (dummy_block ~addr:0x9000 ~term:(Block.T_jmp { target = 0xAAAA }) ());
  Alcotest.(check (option int)) "conservative: nothing queued" None (Spec.pop s)

let test_spec_indirect_stops () =
  let s = mk_spec () in
  Spec.note_block_translated s
    (dummy_block ~addr:0x9000 ~term:(Block.T_jind { kind = Block.K_jump }) ());
  Alcotest.(check (option int)) "no speculation past indirect" None (Spec.pop s)

let test_spec_forget_done () =
  let s = mk_spec () in
  Spec.request_demand s 0x1000;
  Alcotest.(check (option int)) "pop" (Some 0x1000) (Spec.pop s);
  Spec.mark_done s 0x1000;
  Spec.request_demand s 0x1000;
  Alcotest.(check (option int)) "done blocks requeue" None (Spec.pop s);
  Spec.forget_done s 0x1000;
  Spec.request_demand s 0x1000;
  Alcotest.(check (option int)) "after forget it requeues" (Some 0x1000)
    (Spec.pop s)

(* --- Analysis ---------------------------------------------------------- *)

let test_analysis_decomposition () =
  let d = Analysis.paper_decomposition Config.default in
  (* The paper computes 3.9 * 1.3 * 1.1 = 5.5; our intrinsics land near. *)
  if d.memory_factor < 2.5 || d.memory_factor > 5.0 then
    Alcotest.failf "memory factor %.2f out of range" d.memory_factor;
  Alcotest.(check (float 1e-9)) "ilp" 1.3 d.ilp_factor;
  Alcotest.(check (float 1e-9)) "flags" 1.1 d.flags_factor;
  if d.expected_slowdown < 3.5 || d.expected_slowdown > 7.0 then
    Alcotest.failf "expected slowdown %.2f out of range" d.expected_slowdown

let test_analysis_intrinsics_match_fig11 () =
  let i = Analysis.emulator_intrinsics Config.default in
  Alcotest.(check int) "L1 lat" 6 i.l1_hit_latency;
  Alcotest.(check int) "L1 occ" 4 i.l1_hit_occupancy;
  (* Paper: lat 87 / 151; calibrated within a few cycles. *)
  if abs (i.l2_hit_latency - 87) > 5 then
    Alcotest.failf "L2 hit latency %d too far from 87" i.l2_hit_latency;
  if abs (i.l2_miss_latency - 151) > 5 then
    Alcotest.failf "L2 miss latency %d too far from 151" i.l2_miss_latency

let test_cpi_monotone () =
  let i = Analysis.emulator_intrinsics Config.default in
  let cpi l2m =
    Analysis.cpi i ~mem_access_rate:0.3 ~l1_miss_rate:0.1 ~l2_miss_rate:l2m
      ~non_mem_cpi:1.0
  in
  if not (cpi 0.5 > cpi 0.1) then Alcotest.fail "CPI not monotone in miss rate"

(* --- Constant-time bookkeeping against scanning references ------------- *)

(* Random operations on eight addresses. [queue_length] is kept as a
   count: it must lower by exactly one on every successful [pop] and, at
   the end, equal the number of addresses [pop] still returns. An op is
   (kind, a, b, c): kinds 2-4 translate a block at [a] whose terminator
   names [b] and [c]; the others act on [a]. *)
let prop_spec_queue_length =
  QCheck.Test.make ~name:"spec: queue_length counts what pop returns"
    ~count:500
    QCheck.(
      list_of_size Gen.(int_range 0 60)
        (quad (int_bound 8) (int_bound 7) (int_bound 7) (int_bound 7)))
    (fun ops ->
      let s = mk_spec () in
      let addr k = 0x1000 + (k * 0x40) in
      let popped_one () =
        let before = Spec.queue_length s in
        match Spec.pop s with
        | Some _ ->
          if Spec.queue_length s <> before - 1 then
            QCheck.Test.fail_reportf "pop took %d to %d" before
              (Spec.queue_length s);
          true
        | None -> false
      in
      let translated a term =
        Spec.note_block_translated s (dummy_block ~addr:(addr a) ~term ())
      in
      List.iter
        (fun (kind, a, b, c) ->
          match kind with
          | 0 -> Spec.seed s (addr a)
          | 1 -> Spec.request_demand s (addr a)
          | 2 -> translated a (Block.T_jmp { target = addr b })
          | 3 -> translated a (Block.T_jcc { taken = addr b; fall = addr c })
          | 4 -> translated a (Block.T_call { target = addr b; ret = addr c })
          | 5 -> ignore (popped_one ())
          | 6 -> Spec.mark_done s (addr a)
          | 7 -> Spec.forget s (addr a)
          | _ -> Spec.forget_done s (addr a))
        ops;
      let waiting = Spec.queue_length s in
      let rec drain n = if popped_one () then drain (n + 1) else n in
      let popped = drain 0 in
      if popped <> waiting then
        QCheck.Test.fail_reportf "queue_length %d but %d pops" waiting popped;
      Spec.queue_length s = 0)

(* Random installs, finds, removals and page drops on a small L1.5 bank,
   against a list of (addr, size, stamp) that evicts the smallest stamp by
   scanning: every lookup and the hit and miss counts agree. Eight
   addresses share four pages; an op is (kind, address, host insns), and
   some blocks are too large to cache at all. *)
let prop_l15_victims =
  QCheck.Test.make ~name:"L1.5: victims match a scanning LRU" ~count:500
    QCheck.(
      list_of_size Gen.(int_range 0 80)
        (triple (int_bound 3) (int_bound 7) (int_range 1 110)))
    (fun ops ->
      let capacity = 400 in
      let l15 = Code_cache.L15.create ~capacity in
      let resident = ref [] and tick = ref 0 and hits = ref 0
      and misses = ref 0 in
      let used () = List.fold_left (fun n (_, size, _) -> n + size) 0 !resident in
      let drop addr = resident := List.filter (fun (a, _, _) -> a <> addr) !resident in
      let addr k = 0x1000 + (k / 2 * 0x1000) + (k mod 2 * 0x800) in
      List.iter
        (fun (kind, k, host_insns) ->
          let a = addr k in
          (match kind with
           | 0 ->
             let block = dummy_block ~addr:a ~host_insns () in
             let size = Block.size_bytes block in
             Code_cache.L15.install l15 block;
             if size <= capacity then begin
               drop a;
               while used () + size > capacity && !resident <> [] do
                 let victim, _, _ =
                   List.fold_left
                     (fun ((_, _, t0) as o) ((_, _, t1) as e) ->
                       if t1 < t0 then e else o)
                     (List.hd !resident) !resident
                 in
                 drop victim
               done;
               incr tick;
               resident := (a, size, !tick) :: !resident
             end
           | 1 ->
             incr tick;
             let expected =
               match List.find_opt (fun (a', _, _) -> a' = a) !resident with
               | Some (_, size, _) ->
                 incr hits;
                 drop a;
                 resident := (a, size, !tick) :: !resident;
                 Some (a, size)
               | None ->
                 incr misses;
                 None
             in
             let got =
               Option.map
                 (fun ((b : Block.t), _) -> (b.guest_addr, Block.size_bytes b))
                 (Code_cache.L15.find l15 a)
             in
             if got <> expected then
               QCheck.Test.fail_reportf "find 0x%x disagrees with the reference"
                 a
           | 2 ->
             Code_cache.L15.remove l15 a;
             drop a
           | _ ->
             let page = a / 4096 in
             Code_cache.L15.drop_page l15 page;
             resident := List.filter (fun (a', _, _) -> a' / 4096 <> page) !resident);
          if Code_cache.L15.hits l15 <> !hits
             || Code_cache.L15.misses l15 <> !misses
          then QCheck.Test.fail_reportf "hit or miss count disagrees")
        ops;
      (* Every block the reference holds is still resident. *)
      List.for_all
        (fun (a, _, _) -> Code_cache.L15.find l15 a <> None)
        !resident)

let suite =
  [ Alcotest.test_case "L1: tight packing + flush" `Quick test_l1_tight_pack_flush;
    Alcotest.test_case "L1: chaining fields" `Quick test_l1_chaining_fields;
    Alcotest.test_case "L1.5: LRU eviction" `Quick test_l15_lru_eviction;
    Alcotest.test_case "L1.5: drop page" `Quick test_l15_drop_page;
    Alcotest.test_case "L2: page registry" `Quick test_l2_page_registry;
    Alcotest.test_case "L2: reinstall same address" `Quick
      test_l2_reinstall_same_addr;
    Alcotest.test_case "spec: demand beats speculation" `Quick
      test_spec_priorities;
    Alcotest.test_case "spec: promotion dedup" `Quick test_spec_promotion_dedup;
    Alcotest.test_case "spec: backward-taken prediction" `Quick
      test_spec_backward_taken_priority;
    Alcotest.test_case "spec: return predictor" `Quick test_spec_return_predictor;
    Alcotest.test_case "spec: conservative mode" `Quick
      test_spec_no_speculation_mode;
    Alcotest.test_case "spec: stops at indirect" `Quick test_spec_indirect_stops;
    Alcotest.test_case "spec: forget_done" `Quick test_spec_forget_done;
    Alcotest.test_case "analysis: 4.5 decomposition" `Quick
      test_analysis_decomposition;
    Alcotest.test_case "analysis: Figure 11 intrinsics" `Quick
      test_analysis_intrinsics_match_fig11;
    Alcotest.test_case "analysis: CPI monotone" `Quick test_cpi_monotone ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_spec_queue_length; prop_l15_victims ]
