type t = {
  fixed_send : int;
  fixed_recv : int;
  per_word : int;
  handler : int;
  diff_per_word : int;
}

let treadmarks_user =
  { fixed_send = 5000; fixed_recv = 5000; per_word = 10; handler = 1000;
    diff_per_word = 2 }

let treadmarks_kernel =
  { fixed_send = 2200; fixed_recv = 2200; per_word = 10; handler = 400;
    diff_per_word = 2 }

let sweep ~fixed ~per_word =
  { treadmarks_user with fixed_send = fixed; fixed_recv = fixed; per_word }

let hardware =
  { fixed_send = 0; fixed_recv = 0; per_word = 0; handler = 0; diff_per_word = 0 }
