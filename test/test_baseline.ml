(* The app x platform baseline: every named platform and three hybrid
   topologies run the paper's applications at quick scale, plus the
   software-DSM platforms under seeded message loss and a scheduled node
   crash.  Each run is pinned to its simulated cycles, its checksum and
   a digest of its full sorted counter list, so any change to simulated
   behaviour — timing, protocol traffic or results — shows up here as a
   named row.  The table is "same behaviour" for refactors of the
   platform layer: regenerate it only for a deliberate modelling change. *)

module Registry = Shm_apps.Registry
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Machines = Shm_platform.Machines
module Fabric = Shm_net.Fabric
module Lifecycle = Shm_sim.Lifecycle

let apps = [ "sor"; "tsp"; "water"; "m-water"; "ilink-clp" ]

(* --drop 0.05 --fault-seed 1 *)
let drop =
  { Fabric.no_faults with
    Fabric.drop_miss = 0.05;
    drop_sync = 0.05;
    fault_seed = 1 }

(* --crash 1@500000 (checkpoints every 500k cycles, the CLI default) *)
let crash =
  { Lifecycle.none with
    Lifecycle.crashes = [ (1, 500_000) ];
    crash_seed = 1;
    ckpt_interval = 500_000 }

(* (row label, platform constructor, app, nprocs) *)
let runs =
  let named =
    List.concat_map
      (fun name ->
        let procs =
          if name = "dec" then [ 1 ]
          else
            List.filter
              (fun n -> n <= (Machines.get name).Platform.max_procs)
              [ 4; 8 ]
        in
        List.concat_map
          (fun app ->
            List.map
              (fun n -> (name, (fun () -> Machines.get name), app, n))
              procs)
          apps)
      Machines.names
  in
  let hybrids =
    List.concat_map
      (fun spec ->
        List.map
          (fun app ->
            ("topo:" ^ spec, (fun () -> Machines.topology spec), app, 8))
          apps)
      [
        "lrc(mesi*4, mesi*8 x 2, 3)";
        "erc(directory(mesi*2 x 2) x 2)";
        "lrc(mesi*8 x 128)";
      ]
  in
  let injected =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun app ->
            [
              (name ^ " drop", (fun () -> Machines.get ~faults:drop name), app, 4);
              (name ^ " crash", (fun () -> Machines.get ~crash name), app, 4);
            ])
          [ "sor"; "tsp" ])
      [ "treadmarks"; "ivy" ]
  in
  named @ hybrids @ injected

let counters_digest (r : Report.t) =
  List.sort compare r.Report.counters
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let row (label, platform, app, n) =
  let p : Platform.t = platform () in
  let r = p.Platform.run (Registry.app ~scale:Registry.Quick app) ~nprocs:n in
  Printf.sprintf "%s %s %d: %d %h %s" label app n r.Report.cycles
    r.Report.checksum (counters_digest r)

let expected =
  [
    "dec sor 1: 1429948 0x1.70d4575719ee4p+8 d41d8cd98f00b204e9800998ecf8427e";
    "dec tsp 1: 3202237 0x1.1f2p+11 d41d8cd98f00b204e9800998ecf8427e";
    "dec water 1: 32291524 0x1.293cc893f694ap+8 d41d8cd98f00b204e9800998ecf8427e";
    "dec m-water 1: 32279428 0x1.293cc893f694ap+8 d41d8cd98f00b204e9800998ecf8427e";
    "dec ilink-clp 1: 24602964 0x1.0eeb716a5b77bp+5 d41d8cd98f00b204e9800998ecf8427e";
    "treadmarks sor 4: 1511653 0x1.70d4575719efep+8 c08883fcc2ff875a745d23cfa53f52b9";
    "treadmarks sor 8: 1982071 0x1.70d4575719f03p+8 c548dc85e496ec75c582398e535e844e";
    "treadmarks tsp 4: 2216587 0x1.1f2p+11 29b52725a6ff3ead0977cb36b8fb1939";
    "treadmarks tsp 8: 3199371 0x1.1f2p+11 2ddf7d1bd20835ec4159b3072e8f04e4";
    "treadmarks water 4: 61915878 0x1.293cc893f694dp+8 f4dce57245a61a384e28eb4a9df3b255";
    "treadmarks water 8: 51409214 0x1.293cc893f694dp+8 0f60f68fd8954996e5465fb2063df768";
    "treadmarks m-water 4: 17376348 0x1.293cc893f694dp+8 d77b0960d69b0817bfb1269ebe8a2d7a";
    "treadmarks m-water 8: 11942638 0x1.293cc893f694dp+8 5e6ce012dba6a02aa14b847d123f1113";
    "treadmarks ilink-clp 4: 7278713 0x1.0eeb716a5b77ap+5 7190392d78d15806ccf9c79f914729e6";
    "treadmarks ilink-clp 8: 4995113 0x1.0eeb716a5b77bp+5 4ab67b923776dd528b72e266b7ca827b";
    "treadmarks-kernel sor 4: 936703 0x1.70d4575719efep+8 c08883fcc2ff875a745d23cfa53f52b9";
    "treadmarks-kernel sor 8: 1026816 0x1.70d4575719f03p+8 c548dc85e496ec75c582398e535e844e";
    "treadmarks-kernel tsp 4: 1654605 0x1.1f2p+11 1c0455b6d1933a02da6f626372375f6b";
    "treadmarks-kernel tsp 8: 1813980 0x1.1f2p+11 cd3b4728b3f334558f7316d97e850229";
    "treadmarks-kernel water 4: 36007443 0x1.293cc893f694dp+8 4612c743a1f9889d87a80b6f910de604";
    "treadmarks-kernel water 8: 28650284 0x1.293cc893f694dp+8 342b1da45edc5894f67d3d52ee297c71";
    "treadmarks-kernel m-water 4: 15799269 0x1.293cc893f694dp+8 d77b0960d69b0817bfb1269ebe8a2d7a";
    "treadmarks-kernel m-water 8: 9792706 0x1.293cc893f694dp+8 87f870c5dae688ff988caecb66b6a9f0";
    "treadmarks-kernel ilink-clp 4: 6762267 0x1.0eeb716a5b77ap+5 7190392d78d15806ccf9c79f914729e6";
    "treadmarks-kernel ilink-clp 8: 4066037 0x1.0eeb716a5b77bp+5 4ab67b923776dd528b72e266b7ca827b";
    "treadmarks-eager sor 4: 1511653 0x1.70d4575719efep+8 c08883fcc2ff875a745d23cfa53f52b9";
    "treadmarks-eager sor 8: 1982071 0x1.70d4575719f03p+8 c548dc85e496ec75c582398e535e844e";
    "treadmarks-eager tsp 4: 2242089 0x1.1f2p+11 e6adf8742f8aa10a32003c7b4e8b277a";
    "treadmarks-eager tsp 8: 3197181 0x1.1f2p+11 5d4b1eb1c1bebd2f489d970f3bd82b93";
    "treadmarks-eager water 4: 61915878 0x1.293cc893f694dp+8 f4dce57245a61a384e28eb4a9df3b255";
    "treadmarks-eager water 8: 51409214 0x1.293cc893f694dp+8 0f60f68fd8954996e5465fb2063df768";
    "treadmarks-eager m-water 4: 17376348 0x1.293cc893f694dp+8 d77b0960d69b0817bfb1269ebe8a2d7a";
    "treadmarks-eager m-water 8: 11942638 0x1.293cc893f694dp+8 5e6ce012dba6a02aa14b847d123f1113";
    "treadmarks-eager ilink-clp 4: 7278713 0x1.0eeb716a5b77ap+5 7190392d78d15806ccf9c79f914729e6";
    "treadmarks-eager ilink-clp 8: 4995113 0x1.0eeb716a5b77bp+5 4ab67b923776dd528b72e266b7ca827b";
    "treadmarks-erc sor 4: 2437679 0x1.70d4575719efep+8 d68b1bb582b79f07604e32017cd9bd8f";
    "treadmarks-erc sor 8: 3605650 0x1.70d4575719f03p+8 65e13a25b515baa319989269e6a80887";
    "treadmarks-erc tsp 4: 3069380 0x1.1f2p+11 03933dab29f8c9b87e656ea50644c284";
    "treadmarks-erc tsp 8: 5988964 0x1.1f2p+11 2872fb47506f9d1c9b13edb070485807";
    "treadmarks-erc water 4: 123883613 0x1.293cc893f694dp+8 e8ceb7459c4e498114ab8e259b19f5f0";
    "treadmarks-erc water 8: 129064121 0x1.293cc893f694dp+8 a5a2348221d3bcc2af40f4ed89dba159";
    "treadmarks-erc m-water 4: 21098257 0x1.293cc893f694dp+8 7ae3156a1200559bdc176923eb60b104";
    "treadmarks-erc m-water 8: 21405277 0x1.293cc893f694dp+8 42c3d37be9abc7cf16066248fa9b7f40";
    "treadmarks-erc ilink-clp 4: 7564034 0x1.0eeb716a5b77ap+5 fe89b85c34c0e9fd9738c18f05b7dfd6";
    "treadmarks-erc ilink-clp 8: 5588763 0x1.0eeb716a5b77bp+5 a0023a6c3590d159eade69533f184238";
    "ivy sor 4: 4978778 0x1.70d4575719efep+8 9b82449d4b6f3b86ed311e0b86147c2a";
    "ivy sor 8: 6827261 0x1.70d4575719f03p+8 ab294e05e40253912214b7a5ba8c004a";
    "ivy tsp 4: 5326693 0x1.1f2p+11 cd22b7b098cce9a9c96363c5df998af8";
    "ivy tsp 8: 7531031 0x1.1f2p+11 36dd854c1fb30746418e3b0f92064157";
    "ivy water 4: 230969541 0x1.293cc893f694dp+8 15525cacfb5db32e1bd706e2055c1ede";
    "ivy water 8: 274456104 0x1.293cc893f694dp+8 cabd0a3b07451f0db2a62e9c7da94cc8";
    "ivy m-water 4: 18327330 0x1.293cc893f694dp+8 d6c106a328e34ba7bf46ea87a7c72f39";
    "ivy m-water 8: 15199412 0x1.293cc893f694dp+8 d8c3397c304eea69bf47c54a4006d3b5";
    "ivy ilink-clp 4: 9119283 0x1.0eeb716a5b77ap+5 c41de321582f54333298e793eac9e0ee";
    "ivy ilink-clp 8: 8710537 0x1.0eeb716a5b77bp+5 4fd2abd52d7ccfec0fc3d4aa3913c08d";
    "sgi sor 4: 380354 0x1.70d4575719efep+8 2e779bd975b6f00113693c655794bfe4";
    "sgi sor 8: 253837 0x1.70d4575719f03p+8 05ffbc31b3b421b4283cf60ae175c190";
    "sgi tsp 4: 1209560 0x1.1f2p+11 2e2dd53d3c6a2098491700474faab8b5";
    "sgi tsp 8: 864162 0x1.1f2p+11 e0b8a6028be1403c4e880883f0511f83";
    "sgi water 4: 14280145 0x1.293cc893f694dp+8 40e35010fe3d127ccd63a7739eb36f76";
    "sgi water 8: 7685027 0x1.293cc893f694dp+8 dca815814a3446b8ee35db75a0e24445";
    "sgi m-water 4: 14225074 0x1.293cc893f694dp+8 441c67e1eb0963b27111fb37315d9430";
    "sgi m-water 8: 7635101 0x1.293cc893f694dp+8 74898db9effe7665c32b554540d8d8c0";
    "sgi ilink-clp 4: 6351011 0x1.0eeb716a5b77ap+5 1cf0e6aa04339b28342021c4161eacdb";
    "sgi ilink-clp 8: 3227929 0x1.0eeb716a5b77bp+5 b1a2abd4bf13c026d662e3599027ccc5";
    "sgi-fast sor 4: 362042 0x1.70d4575719efep+8 5970e8554edd4b0032206d0ba0bd6057";
    "sgi-fast sor 8: 204560 0x1.70d4575719f03p+8 1347d213e82223f3456b5d31c893d592";
    "sgi-fast tsp 4: 1206454 0x1.1f2p+11 1080e7ae24406b09bab9c09dbe09532d";
    "sgi-fast tsp 8: 860254 0x1.1f2p+11 830562fec383578d57ed6a2782b66e43";
    "sgi-fast water 4: 14254761 0x1.293cc893f694dp+8 c264b2af07b1343994cfcaaef7003c06";
    "sgi-fast water 8: 7658451 0x1.293cc893f694dp+8 9a40bf6501e9125934f2b74c5fb29326";
    "sgi-fast m-water 4: 14220896 0x1.293cc893f694dp+8 880c0fdd8d5ce4c48f0f6aa20b7c347c";
    "sgi-fast m-water 8: 7628547 0x1.293cc893f694dp+8 7e226a903194a527530fa51be36fdaa8";
    "sgi-fast ilink-clp 4: 6345472 0x1.0eeb716a5b77ap+5 409505086ec198f9b63a4f3ea97f80a9";
    "sgi-fast ilink-clp 8: 3219720 0x1.0eeb716a5b77bp+5 acd1b9a6fca7970c3271e7899ba12d28";
    "as sor 4: 1517581 0x1.70d4575719efep+8 c08883fcc2ff875a745d23cfa53f52b9";
    "as sor 8: 2026022 0x1.70d4575719f03p+8 c548dc85e496ec75c582398e535e844e";
    "as tsp 4: 2288481 0x1.1f2p+11 9b5028383768d24d44fbcc77d61b5955";
    "as tsp 8: 3257608 0x1.1f2p+11 2ddf7d1bd20835ec4159b3072e8f04e4";
    "as water 4: 60088244 0x1.293cc893f694dp+8 e7a75566bced1006bf33594fa5d3673b";
    "as water 8: 52368302 0x1.293cc893f694dp+8 1e51035b8fddc5711a7ac55e932797b4";
    "as m-water 4: 17436620 0x1.293cc893f694dp+8 d77b0960d69b0817bfb1269ebe8a2d7a";
    "as m-water 8: 12051284 0x1.293cc893f694dp+8 5e6ce012dba6a02aa14b847d123f1113";
    "as ilink-clp 4: 7308489 0x1.0eeb716a5b77ap+5 7190392d78d15806ccf9c79f914729e6";
    "as ilink-clp 8: 5052720 0x1.0eeb716a5b77bp+5 4ab67b923776dd528b72e266b7ca827b";
    "ah sor 4: 467908 0x1.70d4575719efep+8 cb20c8b38880da1b1ff28d4cf7420976";
    "ah sor 8: 294722 0x1.70d4575719f03p+8 3a541b1c5a720af14dfad2b33f26a7c9";
    "ah tsp 4: 1200694 0x1.1f2p+11 39ad36a194da70ce04764283da21a720";
    "ah tsp 8: 868409 0x1.1f2p+11 322d22e88643ea8969e2c8efda4d1c6a";
    "ah water 4: 14338394 0x1.293cc893f694dp+8 31206a0394bb066977e4c5099aa42a18";
    "ah water 8: 7731051 0x1.293cc893f694dp+8 c669b6e94147bddc74b1210111ce038d";
    "ah m-water 4: 14238345 0x1.293cc893f694dp+8 32a214f544c29da42f662721e3da097a";
    "ah m-water 8: 7646526 0x1.293cc893f694dp+8 d60058ab85b4088308d3dc9528ae1ac8";
    "ah ilink-clp 4: 6383781 0x1.0eeb716a5b77ap+5 57889be226d902088ecaf416c8ab0189";
    "ah ilink-clp 8: 3272809 0x1.0eeb716a5b77bp+5 cf6caad9265a118722abc40fd3566f41";
    "hs sor 4: 352646 0x1.70d4575719efep+8 9a809fe07417612fc16b455a7cdd0c20";
    "hs sor 8: 211742 0x1.70d4575719f03p+8 7c3e884e5eb2bbe9a2d8a2560c58cc0c";
    "hs tsp 4: 1242570 0x1.1f2p+11 e5dc2b1f8a6d51e1594dec76b4ce4f0b";
    "hs tsp 8: 907747 0x1.1f2p+11 0e15cb1bbd6b3a225e92337a3262fedc";
    "hs water 4: 14316343 0x1.293cc893f694dp+8 c0f0bc5d9cd437e14d77a099cc6fb7a7";
    "hs water 8: 7676609 0x1.293cc893f694dp+8 21c1fa3c05527887db602e4db6457e83";
    "hs m-water 4: 14224401 0x1.293cc893f694dp+8 5416b09e5d2d1a0d2115ad06e02ff1b5";
    "hs m-water 8: 7629655 0x1.293cc893f694dp+8 ae56fb46527690b0bfeee0bb7d6a9c10";
    "hs ilink-clp 4: 6337105 0x1.0eeb716a5b77ap+5 4f6ea17f34551d037158ffaa6925db39";
    "hs ilink-clp 8: 3207472 0x1.0eeb716a5b77bp+5 ae7f45ddb533219d4e1406c466f7f595";
    "topo:lrc(mesi*4, mesi*8 x 2, 3) sor 8: 927387 0x1.70d4575719f03p+8 2278dbef1cba55e72c6367278115e8d3";
    "topo:lrc(mesi*4, mesi*8 x 2, 3) tsp 8: 1321016 0x1.1f2p+11 5cbd75fceef787bf919fab283c0e6e45";
    "topo:lrc(mesi*4, mesi*8 x 2, 3) water 8: 21475835 0x1.293cc893f694dp+8 6030443f4b5e7968241a1fe5193d4431";
    "topo:lrc(mesi*4, mesi*8 x 2, 3) m-water 8: 8657791 0x1.293cc893f694dp+8 270390d9b05d9b76a74f5b92b4616308";
    "topo:lrc(mesi*4, mesi*8 x 2, 3) ilink-clp 8: 4072616 0x1.0eeb716a5b77bp+5 dbe48d11fd51d8ce7e11077f4f389787";
    "topo:erc(directory(mesi*2 x 2) x 2) sor 8: 1319154 0x1.70d4575719f03p+8 b4bf285fc20301ae28483744335c2167";
    "topo:erc(directory(mesi*2 x 2) x 2) tsp 8: 1562953 0x1.1f2p+11 e5917a25950e14832212b2c584181671";
    "topo:erc(directory(mesi*2 x 2) x 2) water 8: 44932261 0x1.293cc893f694dp+8 8617da6417cdc9408bf4fab28259d70b";
    "topo:erc(directory(mesi*2 x 2) x 2) m-water 8: 11457019 0x1.293cc893f694dp+8 17157a3cf519c196b94aaac57d261613";
    "topo:erc(directory(mesi*2 x 2) x 2) ilink-clp 8: 4248661 0x1.0eeb716a5b77bp+5 ad6fbe074fea3f527cb12639b1edaaf9";
    "topo:lrc(mesi*8 x 128) sor 8: 211742 0x1.70d4575719f03p+8 7c3e884e5eb2bbe9a2d8a2560c58cc0c";
    "topo:lrc(mesi*8 x 128) tsp 8: 907747 0x1.1f2p+11 0e15cb1bbd6b3a225e92337a3262fedc";
    "topo:lrc(mesi*8 x 128) water 8: 7676609 0x1.293cc893f694dp+8 21c1fa3c05527887db602e4db6457e83";
    "topo:lrc(mesi*8 x 128) m-water 8: 7629655 0x1.293cc893f694dp+8 ae56fb46527690b0bfeee0bb7d6a9c10";
    "topo:lrc(mesi*8 x 128) ilink-clp 8: 3207472 0x1.0eeb716a5b77bp+5 ae7f45ddb533219d4e1406c466f7f595";
    "treadmarks drop sor 4: 1946718 0x1.70d4575719efep+8 7332358a7def6e92577154045b2b405f";
    "treadmarks crash sor 4: 2495431 0x1.70d4575719efep+8 eb7e664c7f9dcf528af3ac63574de18e";
    "treadmarks drop tsp 4: 2441121 0x1.1f2p+11 0512226c07d1c28d6d8fe3ffeb4e685a";
    "treadmarks crash tsp 4: 2422381 0x1.1f2p+11 7c0f053a6e3da91f2edd186504fb3eb4";
    "ivy drop sor 4: 5614529 0x1.70d4575719efep+8 6bce82938fc5c7132f900dcc3e217994";
    "ivy crash sor 4: 6319617 0x1.70d4575719efep+8 0267a6836ef25ef7dc84729a46d63299";
    "ivy drop tsp 4: 5995266 0x1.1f2p+11 8f7deb427dfe136181c8703e90551bb1";
    "ivy crash tsp 4: 6280716 0x1.1f2p+11 ad68157f3a75bbc845873824ec1d7ded";
  ]

let test_baseline () =
  let actual = List.map row runs in
  Alcotest.(check int) "row count" (List.length expected) (List.length actual);
  List.iter2 (Alcotest.(check string) "baseline row") expected actual

let suite =
  [ Alcotest.test_case "app x platform baseline" `Quick test_baseline ]
