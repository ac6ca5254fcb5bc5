(* Regenerates the committed golden model files:

     test/golden/<fixture>.model.json   (test-support fixtures)
     examples/itua.model.json           (small ITUA configuration)
     test/golden/itua_<topology>.check.json
                                        (check --strict --invariants --json
                                         certificates: 1x1x1x1 exhaustive,
                                         2x2x2x2 sampled)

   Run from the repository root after an intentional format change:

     dune exec tools/gen_golden.exe

   The fixture parameters and the ITUA topologies must stay in sync with
   test/test_serial.ml, test/test_analysis.ml and the CI golden gate. *)

let write path doc =
  Serial.save path doc;
  Printf.printf "wrote %s\n" path

let itua ~d ~h ~a ~r =
  {
    Itua.Params.default with
    num_domains = d;
    hosts_per_domain = h;
    num_apps = a;
    num_reps = r;
  }

(* The document [itua_sim check --strict --invariants --json] writes
   for this configuration (no --symmetry, no --ir-dump). *)
let check_json p =
  let h = Itua.Model.build p in
  Analysis.Check.to_json
    (Analysis.Check.run ~composition:h.Itua.Model.composition
       ~laws:(Itua.Invariant.conservation_laws h)
       h.Itua.Model.model)

let () =
  List.iter
    (fun (name, model) ->
      write
        (Filename.concat "test/golden" (name ^ ".model.json"))
        (Serial.to_json model))
    [
      ( "two_state",
        (Test_models.two_state ~lambda:0.2 ~mu:1.0).Test_models.ts_model );
      ("mm1k", (Test_models.mm1k ~lambda:0.8 ~mu:1.0 ~k:5).Test_models.q_model);
      ("tandem", (Test_models.tandem ~r1:1.0 ~r2:0.5).Test_models.td_model);
      ("gong", (Test_models.gong ()).Test_models.g_model);
    ];
  let p = itua ~d:2 ~h:2 ~a:2 ~r:2 in
  let h = Itua.Model.build p in
  write "examples/itua.model.json"
    (Serial.to_json
       ~composition:h.Itua.Model.composition
       ~annotations:[ ("params", Itua.Params.to_json p) ]
       h.Itua.Model.model);
  List.iter
    (fun (name, p) ->
      let path = Filename.concat "test/golden" (name ^ ".check.json") in
      Report.write_jsonl path [ check_json p ];
      Printf.printf "wrote %s\n" path)
    [
      ("itua_1x1x1x1", itua ~d:1 ~h:1 ~a:1 ~r:1);
      ("itua_2x2x2x2", itua ~d:2 ~h:2 ~a:2 ~r:2);
    ]
