(* Fault injection and recovery demo: kill tiles out from under a running
   virtual architecture and watch it limp home with the right answer.

   A seeded fault plan fail-stops two translation slaves and one L2
   data-cache bank mid-run. The manager evicts the dead slaves and
   requeues their work, the memory system drains and re-hashes the
   surviving banks, and the guest-visible result is bit-identical to the
   fault-free run — only the cycle count moves.

   Run with: dune exec examples/fault_demo.exe [-- benchmark] *)

open Vat_core
open Vat_workloads
open Vat_desim

let plan =
  Fault.make ~seed:2026
    [ { Fault.at = 40_000; site = Fault.site ~index:0 Fault.Translator;
        kind = Fault.Fail_stop };
      { Fault.at = 60_000; site = Fault.site ~index:1 Fault.L2d;
        kind = Fault.Fail_stop };
      { Fault.at = 90_000; site = Fault.site ~index:2 Fault.Translator;
        kind = Fault.Fail_stop };
      { Fault.at = 120_000; site = Fault.site Fault.Manager;
        kind = Fault.Drop_requests 4 } ]

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "gzip" in
  let b = Suite.find bench in
  Printf.printf "benchmark: %s (%s)\n\nfault plan (seed %d):\n" b.name
    b.description (Fault.seed plan);
  List.iter
    (fun e -> Printf.printf "  %s\n" (Fault.event_to_string e))
    (Fault.events plan);
  let run name faults =
    let rv = Vm.run ~fuel:50_000_000 ~faults Config.default (Suite.load b) in
    let outcome =
      match rv.Vm.outcome with
      | Exec.Exited n -> Printf.sprintf "exit %d" n
      | Exec.Fault m -> "fault: " ^ m
      | Exec.Out_of_fuel -> "out of fuel"
    in
    Printf.printf "\n%-12s %-10s cycles %9d   digest %08x\n" name outcome
      rv.Vm.cycles rv.Vm.digest;
    rv
  in
  let clean = run "fault-free" Fault.empty in
  let faulty = run "faulty" plan in
  Printf.printf
    "  tiles lost %d, timeouts %d, retries %d, dropped %d, degraded-path \
     events %d\n"
    (Metrics.failed_tiles faulty)
    (Metrics.fault_timeouts faulty)
    (Metrics.fault_retries faulty)
    (Metrics.dropped_requests faulty)
    (Metrics.degraded_events faulty);
  Printf.printf "\nsame guest-visible state: %b\n"
    (clean.Vm.digest = faulty.Vm.digest && clean.Vm.output = faulty.Vm.output);
  Printf.printf "slowdown from the faults: %+.2f%%\n"
    (100.
    *. (float_of_int faulty.Vm.cycles -. float_of_int clean.Vm.cycles)
    /. float_of_int clean.Vm.cycles)
