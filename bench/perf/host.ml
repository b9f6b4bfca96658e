(* Host measurements: a monotonic nanosecond clock and this process's
   memory figures from /proc. *)

(* Bound straight to Bechamel's stub, so a read is one noalloc C call
   returning an unboxed int64: the per-boundary cost of the traced pass
   stays small and stable. *)
external now64 : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now () = Int64.to_int (now64 ())

let seconds_since t0 = float_of_int (now () - t0) *. 1e-9

(* [status_mb "VmHWM"] reads one kB field of /proc/self/status, in MiB
   (0 where /proc is unavailable). *)
let status_mb field =
  let prefix = field ^ ":" in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.starts_with ~prefix l ->
            let rest = String.sub l (String.length prefix) (String.length l - String.length prefix) in
            Scanf.sscanf rest " %d" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v
