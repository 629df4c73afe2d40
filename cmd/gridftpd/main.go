// Command gridftpd runs a standalone GridFTP server (Section 3.2) over a
// storage directory: GSI-authenticated control channel, parallel
// extended-block data channels, partial and restartable transfers, CRC
// checks, and 112 performance markers.
//
// Usage:
//
//	gridftpd -root /data -listen :2811 -cred certs/site.pem -ca certs/ca.pem \
//	         [-gridmap gridmap] [-markers 10485760] [-block 65536]
//
// Without -gridmap, every authenticated identity gets read and write access.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"gdmp/internal/gridftp"
	"gdmp/internal/gsi"
)

func main() {
	root := flag.String("root", "", "directory to serve (required)")
	listen := flag.String("listen", ":2811", "address to listen on")
	credPath := flag.String("cred", "", "server credential file (required)")
	caPath := flag.String("ca", "", "trust anchor certificate (required)")
	gridmap := flag.String("gridmap", "", "authorization gridmap (default: allow all)")
	markers := flag.Int64("markers", 0, "emit a performance marker every N bytes (0 disables)")
	block := flag.Int("block", gridftp.DefaultBlockSize, "extended block payload size")
	flag.Parse()

	if err := run(*root, *listen, *credPath, *caPath, *gridmap, *markers, *block); err != nil {
		fmt.Fprintln(os.Stderr, "gridftpd:", err)
		os.Exit(1)
	}
}

func run(root, listen, credPath, caPath, gridmap string, markers int64, block int) error {
	if root == "" || credPath == "" || caPath == "" {
		return fmt.Errorf("-root, -cred and -ca are required")
	}
	cred, err := gsi.LoadCredential(credPath)
	if err != nil {
		return err
	}
	anchor, err := gsi.LoadCertificate(caPath)
	if err != nil {
		return err
	}
	acl := gsi.NewACL()
	acl.AllowAll(gridftp.OpRead, gridftp.OpWrite)
	if gridmap != "" {
		if acl, err = gsi.LoadGridmapFile(gridmap); err != nil {
			return err
		}
	}

	srv, err := gridftp.NewServer(gridftp.ServerConfig{
		Root:        root,
		Cred:        cred,
		TrustRoots:  []*gsi.Certificate{anchor},
		ACL:         acl,
		BlockSize:   block,
		MarkerBytes: markers,
		Logger:      log.Default(),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	log.Printf("gridftp server %s serving %s on %s", cred.Identity(), root, ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
		return srv.Close()
	}
}
